// Command directload-vet is the repo's custom analyzer suite. It
// speaks the (unpublished) `go vet -vettool` protocol, so the go
// command does package loading, export data and result caching:
//
//	go build -o bin/directload-vet ./cmd/directload-vet
//	go vet -vettool=bin/directload-vet ./...
//
// Invoked with package patterns instead of a .cfg file it re-executes
// itself through `go vet`, so `go run ./cmd/directload-vet ./...`
// also works. Individual analyzers can be selected with their name as
// a boolean flag (`-locksafe ./...`); by default all run.
//
// Findings are suppressed with a lint directive on the flagged line
// or the line above:
//
//	//lint:ignore <analyzer> reason
//
// The reason is mandatory: a directive without one suppresses
// nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"directload/internal/analysis"
	"directload/internal/analysis/ctxflow"
	"directload/internal/analysis/errflow"
	"directload/internal/analysis/locksafe"
)

// toolVersion doubles as the go command's vet cache key: bump it
// whenever analyzer behavior changes, or stale cached results survive
// the upgrade.
const toolVersion = "0.5.1"

// suite is every analyzer directload-vet runs, in report order.
var suite = []*analysis.Analyzer{
	ctxflow.Analyzer,
	errflow.Analyzer,
	locksafe.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The go command probes `directload-vet -flags` before the real
	// run to learn which flags it may forward.
	if len(args) == 1 && args[0] == "-flags" {
		return printFlags(stdout, stderr)
	}

	fs := flag.NewFlagSet("directload-vet", flag.ExitOnError)
	version := fs.String("V", "", "print version and exit (go command protocol)")
	list := fs.Bool("list", false, "list analyzers and exit")
	selected := make(map[string]*bool, len(suite))
	for _, a := range suite {
		selected[a.Name] = fs.Bool(a.Name, false, "run only "+a.Name+" (default: all)")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version != "" {
		// The exact shape the go command expects from tool -V=full:
		// "<name> version <non-devel-version>".
		fmt.Fprintf(stdout, "directload-vet version %s\n", toolVersion)
		return 0
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := suite
	var picked []*analysis.Analyzer
	var pickedFlags []string
	for _, a := range suite {
		if *selected[a.Name] {
			picked = append(picked, a)
			pickedFlags = append(pickedFlags, "-"+a.Name)
		}
	}
	if len(picked) > 0 {
		analyzers = picked
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return analysis.RunUnit(rest[0], analyzers)
	}
	if len(rest) == 0 {
		fmt.Fprintln(stderr, "usage: directload-vet [-<analyzer>...] <packages> | <vet.cfg>")
		return 2
	}
	return reexecGoVet(pickedFlags, rest, stdout, stderr)
}

// printFlags answers the go command's -flags query with the JSON
// description it expects. Only the per-analyzer selection flags are
// forwardable; -V and -list are not.
func printFlags(stdout, stderr io.Writer) int {
	type flagDesc struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	var out []flagDesc
	for _, a := range suite {
		out = append(out, flagDesc{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// reexecGoVet runs `go vet -vettool=<self> <patterns>`, which hands
// each package back to this binary in .cfg form with export data and
// caching handled by the go command. Findings stream through to
// stderr as usual.
func reexecGoVet(analyzerFlags, patterns []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "directload-vet: %v\n", err)
		return 1
	}
	cmdArgs := append([]string{"vet", "-vettool=" + self}, analyzerFlags...)
	cmdArgs = append(cmdArgs, patterns...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(stderr, "directload-vet: %v\n", err)
		return 1
	}
	return 0
}
