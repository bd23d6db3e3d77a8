package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"directload/internal/fleet"
)

// fleetUsage prints the fleet subcommand's help and exits.
func fleetUsage() {
	fmt.Fprintln(os.Stderr, "usage: qindbctl fleet -nodes 'a,b,c[;d,e,f]' [-replicas 3] [-quorum 0] <cmd> [args]")
	fmt.Fprintln(os.Stderr, "       -nodes groups are ';'-separated, members ','-separated")
	fmt.Fprintln(os.Stderr, "       put  <key> <version> <value>    quorum write onto the key's replica set")
	fmt.Fprintln(os.Stderr, "       get  <key> <version>            hedged parallel read")
	fmt.Fprintln(os.Stderr, "       drop <version>                  retire a version on every node; fails naming any not reached")
	fmt.Fprintln(os.Stderr, "       load <version>                  key<TAB>value lines from stdin, quorum-written")
	fmt.Fprintln(os.Stderr, "       where <key>                     print the key's group and replica set")
	os.Exit(2)
}

// runFleet is the `qindbctl fleet` entry point: a client-side shard
// router over the given nodes, speaking the same wire protocol as the
// single-node commands but placing each key on its rendezvous-chosen
// replica set.
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	nodes := fs.String("nodes", "", "replication groups: ';' between groups, ',' between node addresses")
	replicas := fs.Int("replicas", 3, "replicas per key")
	quorum := fs.Int("quorum", 0, "write quorum (0 = majority of replicas)")
	fs.Usage = fleetUsage
	fs.Parse(args)
	if *nodes == "" || fs.NArg() == 0 {
		fleetUsage()
	}

	f, err := fleet.New(fleet.Config{
		Groups:      parseGroups(*nodes),
		Replicas:    *replicas,
		WriteQuorum: *quorum,
		Timeout:     *timeout,
	})
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	defer f.Close()
	ctx := context.Background()

	cmd, cargs := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "put":
		if len(cargs) != 3 {
			fleetUsage()
		}
		err := f.PublishVersion(ctx, parseVersion(cargs[1]), []fleet.Entry{
			{Key: []byte(cargs[0]), Value: []byte(cargs[2])},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "get":
		if len(cargs) != 2 {
			fleetUsage()
		}
		val, err := f.Get(ctx, []byte(cargs[0]), parseVersion(cargs[1]))
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(val)
		fmt.Println()
	case "drop":
		if len(cargs) != 1 {
			fleetUsage()
		}
		if err := f.DropVersion(ctx, parseVersion(cargs[0])); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "load":
		if len(cargs) != 1 {
			fleetUsage()
		}
		fleetLoadStdin(ctx, f, parseVersion(cargs[0]))
	case "where":
		if len(cargs) != 1 {
			fleetUsage()
		}
		group, ids := f.ReplicasFor([]byte(cargs[0]))
		fmt.Printf("group %d replicas %s\n", group, strings.Join(ids, " "))
	default:
		fleetUsage()
	}
}

// fleetLoadStdin reads key<TAB>value lines and quorum-writes them as
// one version through the router — the sharded counterpart of `load`.
func fleetLoadStdin(ctx context.Context, f *fleet.Fleet, version uint64) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var entries []fleet.Entry
	for sc.Scan() {
		key, value, _ := strings.Cut(sc.Text(), "\t")
		if key == "" {
			continue
		}
		entries = append(entries, fleet.Entry{Key: []byte(key), Value: []byte(value)})
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := f.PublishVersion(ctx, version, entries); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("loaded %d records @v%d across the fleet in %s (%.0f/s)\n",
		len(entries), version, elapsed.Round(time.Millisecond),
		float64(len(entries))/elapsed.Seconds())
}

// parseGroups splits a -nodes value: ';' between replication groups,
// ',' between member addresses.
func parseGroups(s string) [][]string {
	var groups [][]string
	for _, g := range strings.Split(s, ";") {
		var members []string
		for _, m := range strings.Split(g, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) > 0 {
			groups = append(groups, members)
		}
	}
	return groups
}
