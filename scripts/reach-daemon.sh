#!/usr/bin/env bash
# The daemon half of `make reach`: how much of qindbd and qindbctl an
# operator reaches. Both binaries are built with coverage; the daemon
# runs on loopback with every door and route on (-resp-addr,
# -metrics-addr, -pprof) and is driven by every qindbctl command, the
# RESP commands README lists and every operator HTTP route, then stopped
# with SIGTERM, which it must answer by exiting 0, writing its counters
# as it goes. Prints statement coverage per daemon package. A record, not
# a gate: code at 0 % here is code no operator path runs.
#
#   bash scripts/reach-daemon.sh          # from the repository root
#
# REACH_PORT (default 17707) and the two ports above it must be free.
set -euo pipefail

GO=${GO:-go}
out=bin/reach/daemon
port=${REACH_PORT:-17707}
native=127.0.0.1:$port
resp_port=$((port + 1))
http=127.0.0.1:$((port + 2))

rm -rf "$out" && mkdir -p "$out/cov"
$GO build -cover -coverpkg=directload/... -o "$out/qindbd" ./cmd/qindbd
$GO build -cover -coverpkg=directload/... -o "$out/qindbctl" ./cmd/qindbctl
export GOCOVERDIR=$out/cov

"$out/qindbd" -addr "$native" -resp-addr "127.0.0.1:$resp_port" -metrics-addr "$http" \
	-pprof -slowlog-threshold 1ns -attr-sample 1 2>"$out/qindbd.log" &
pid=$!
watch=
trap 'kill $pid $watch 2>/dev/null || true' EXIT
for _ in $(seq 100); do
	curl -fsS -o /dev/null "http://$http/healthz" 2>/dev/null && break
	sleep 0.05
done

ctl() { "$out/qindbctl" -addr "$native" -http "$http" "$@"; }
{
	ctl ping
	ctl put k 1 value
	ctl putd k 2
	ctl get k 1
	ctl get k 2
	ctl get missing 1 2>/dev/null || true # a miss feeds the read SLO
	printf 'a\t1\nb\t2\nc\n' | ctl load 3
	ctl range
	ctl range a c
	ctl del a 3
	ctl drop 1
	ctl stats
	ctl slowlog
	ctl slowlog -op get -n 2
	fleet() { ctl fleet -nodes "$native" -replicas 1 "$@"; }
	fleet put fk 4 fv
	fleet get fk 4
	printf 'f1\tv1\nf2\tv2\n' | fleet load 5
	fleet where fk
	fleet drop 5
} >"$out/qindbctl.txt"

# A drop that reaches no node must fail, naming the node it missed.
if ctl fleet -nodes 127.0.0.1:1 -replicas 1 drop 9 2>"$out/fleet-drop.txt"; then
	echo "reach-daemon: fleet drop reported success for a node it never reached" >&2
	exit 1
fi
grep -q 127.0.0.1:1 "$out/fleet-drop.txt" || {
	echo "reach-daemon: fleet drop's error does not name 127.0.0.1:1" >&2
	exit 1
}

# `metrics` prints the registry from /metrics, GET latencies included.
ctl metrics >"$out/metrics.txt"
grep -q '^server\.req\.get\.latency_us ' "$out/metrics.txt" || {
	echo "reach-daemon: qindbctl metrics printed no server.req.get.latency_us ($out/metrics.txt)" >&2
	exit 1
}

# Two intervals of `stats -watch` at least: it polls until the daemon
# goes away below, and then exits through its error path.
ctl stats -watch -interval 200ms >"$out/watch.txt" 2>&1 &
watch=$!

# Every RESP command README lists, as RESP arrays on one connection, one
# inline command (the telnet form) and QUIT, which closes it.
resp() {
	local a
	printf '*%d\r\n' $#
	for a in "$@"; do printf '$%d\r\n%s\r\n' "${#a}" "$a"; done
}
exec 3<>"/dev/tcp/127.0.0.1/$resp_port"
{
	resp PING
	resp ECHO hi
	resp SET rk rv
	resp GET rk
	resp MSET ra 1 rb 2
	resp MGET rk ra rb nope
	resp EXISTS rk ra nope
	resp DEL ra
	resp DBSIZE
	resp SELECT 1
	resp MULTI
	resp SET mk mv
	resp GET mk
	resp EXEC
	resp MULTI
	resp SET dk dv
	resp DISCARD
	resp INFO
	resp INFO keyspace
	resp SELECT 0
	printf 'GET rk\r\n'
	resp QUIT
} >&3
timeout 5 cat <&3 >"$out/resp.txt"
exec 3<&-

# Every operator route, each format and filter.
for path in /healthz /metrics '/metrics?format=json' '/metrics?format=prom' \
	/debug/slowlog '/debug/slowlog?n=2&op=get' '/debug/slowlog?format=json' \
	/debug/attrib '/debug/attrib?format=json' \
	/debug/pprof/ /debug/pprof/cmdline '/debug/pprof/profile?seconds=1' \
	/debug/pprof/symbol '/debug/pprof/trace?seconds=1' /debug/pprof/heap \
	'/debug/pprof/allocs?seconds=1' '/debug/pprof/goroutine?debug=1'; do
	curl -fsS -o /dev/null "http://$http$path"
done

kill -TERM "$pid"
if ! wait "$pid"; then
	echo "qindbd did not exit 0 on SIGTERM (log: $out/qindbd.log)" >&2
	exit 1
fi
wait "$watch" || true # its poll fails once the daemon is gone
trap - EXIT
if [ "$(grep -c '^---' "$out/watch.txt")" -lt 2 ]; then
	echo "stats -watch printed fewer than two intervals ($out/watch.txt)" >&2
	exit 1
fi

$GO tool covdata percent -i "$out/cov" -pkg directload/internal/server,directload/internal/resp,directload/internal/fleet,directload/internal/metrics,directload/internal/ops,directload/internal/core,directload/internal/aof,directload/internal/blockfs,directload/internal/ssd,directload/cmd/qindbd,directload/cmd/qindbctl
