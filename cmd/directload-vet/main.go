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
// Machine-readable output (only meaningful in re-exec mode, where the
// whole run's findings are visible at once):
//
//	directload-vet -json ./...          findings as JSON on stdout
//	directload-vet -sarif=out.sarif ./...  SARIF 2.1.0 for CI upload
//
// Findings are suppressed with a lint directive on the flagged line
// or the line above:
//
//	//lint:ignore <analyzer> reason
//
// The reason is mandatory; `directload-vet -audit-ignores` lists every
// directive in the tree with its reason and fails if any directive
// lacks one.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"

	"directload/internal/analysis"
	"directload/internal/analysis/blockalign"
	"directload/internal/analysis/ctxflow"
	"directload/internal/analysis/errflow"
	"directload/internal/analysis/locksafe"
	"directload/internal/analysis/nilmetrics"
)

// toolVersion doubles as the go command's vet cache key: bump it
// whenever analyzer behavior changes, or stale cached results survive
// the upgrade.
const toolVersion = "0.4.0"

// suite is every analyzer directload-vet runs, in report order.
var suite = []*analysis.Analyzer{
	blockalign.Analyzer,
	ctxflow.Analyzer,
	errflow.Analyzer,
	locksafe.Analyzer,
	nilmetrics.Analyzer,
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
	jsonOut := fs.Bool("json", false, "print findings as JSON on stdout (re-exec mode)")
	sarifOut := fs.String("sarif", "", "write findings as SARIF 2.1.0 to this file, or - for stdout (re-exec mode)")
	audit := fs.Bool("audit-ignores", false, "list every //lint:ignore directive with its reason; fail on reasonless ones")
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
	if *audit {
		root := "."
		if fs.NArg() > 0 {
			root = fs.Arg(0)
		}
		return runAudit(root, stdout, stderr)
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
		fmt.Fprintln(stderr, "usage: directload-vet [-<analyzer>...] [-json] [-sarif=FILE] <packages> | <vet.cfg> | -audit-ignores [dir]")
		return 2
	}
	return reexecGoVet(pickedFlags, rest, *jsonOut, *sarifOut, stdout, stderr)
}

// runAudit lists the tree's lint directives and fails on reasonless
// ones: a directive with no reason suppresses nothing (the engine
// treats it as inert), so it documents an intent it does not enforce.
func runAudit(root string, stdout, stderr io.Writer) int {
	entries, err := analysis.AuditIgnores(root)
	if err != nil {
		fmt.Fprintf(stderr, "directload-vet: audit: %v\n", err)
		return 1
	}
	bad := 0
	for _, e := range entries {
		fmt.Fprintln(stdout, e.String())
		if e.Reason == "" {
			bad++
		}
	}
	fmt.Fprintf(stdout, "%d directive(s), %d without a reason\n", len(entries), bad)
	if bad > 0 {
		fmt.Fprintf(stderr, "directload-vet: %d //lint:ignore directive(s) missing the mandatory reason\n", bad)
		return 2
	}
	return 0
}

// printFlags answers the go command's -flags query with the JSON
// description it expects. Only per-analyzer selection flags are
// forwardable; the driver-level output flags are not.
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

// finding is one parsed go vet diagnostic line.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// vetLineRe matches the diagnostic lines RunUnit prints through go
// vet: file:line:col: analyzer: message.
var vetLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): ([a-z]+): (.*)$`)

// parseVetLine extracts a finding from one stderr line, or ok=false
// for go vet's own chatter (# package headers, exit status, notes).
func parseVetLine(line string, analyzerNames map[string]bool) (finding, bool) {
	m := vetLineRe.FindStringSubmatch(line)
	if m == nil || !analyzerNames[m[4]] {
		return finding{}, false
	}
	ln, _ := strconv.Atoi(m[2])
	col, _ := strconv.Atoi(m[3])
	return finding{File: m[1], Line: ln, Col: col, Analyzer: m[4], Message: m[5]}, true
}

// reexecGoVet runs `go vet -vettool=<self> <patterns>`, which hands
// each package back to this binary in .cfg form with export data and
// caching handled by the go command. Findings
// stream through to stderr as usual; with -json or -sarif they are
// additionally parsed out of the stream and re-emitted structurally.
func reexecGoVet(analyzerFlags, patterns []string, jsonOut bool, sarifPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "directload-vet: %v\n", err)
		return 1
	}
	cmdArgs := append([]string{"vet", "-vettool=" + self}, analyzerFlags...)
	cmdArgs = append(cmdArgs, patterns...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stdout = stdout
	cmd.Stdin = os.Stdin

	var captured bytes.Buffer
	if jsonOut || sarifPath != "" {
		cmd.Stderr = io.MultiWriter(stderr, &captured)
	} else {
		cmd.Stderr = stderr
	}

	code := 0
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else {
			fmt.Fprintf(stderr, "directload-vet: %v\n", err)
			return 1
		}
	}
	if !jsonOut && sarifPath == "" {
		return code
	}

	names := make(map[string]bool, len(suite))
	for _, a := range suite {
		names[a.Name] = true
	}
	findings := []finding{}
	sc := bufio.NewScanner(&captured)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if f, ok := parseVetLine(sc.Text(), names); ok {
			findings = append(findings, f)
		}
	}

	if jsonOut {
		data, _ := json.MarshalIndent(findings, "", "  ")
		fmt.Fprintln(stdout, string(data))
	}
	if sarifPath != "" {
		data, err := json.MarshalIndent(sarifReport(findings), "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "directload-vet: sarif: %v\n", err)
			return 1
		}
		if sarifPath == "-" {
			fmt.Fprintln(stdout, string(data))
		} else if err := os.WriteFile(sarifPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "directload-vet: sarif: %v\n", err)
			return 1
		}
	}
	return code
}

// sarifReport renders findings as a minimal SARIF 2.1.0 log, the
// shape code-scanning UIs ingest. Built from maps rather than a type
// hierarchy: the format is write-only here.
func sarifReport(findings []finding) map[string]any {
	rules := make([]map[string]any, 0, len(suite))
	for _, a := range suite {
		rules = append(rules, map[string]any{
			"id":               a.Name,
			"shortDescription": map[string]any{"text": a.Doc},
		})
	}
	results := make([]map[string]any, 0, len(findings))
	for _, f := range findings {
		results = append(results, map[string]any{
			"ruleId":  f.Analyzer,
			"level":   "warning",
			"message": map[string]any{"text": f.Message},
			"locations": []map[string]any{{
				"physicalLocation": map[string]any{
					"artifactLocation": map[string]any{"uri": f.File},
					"region": map[string]any{
						"startLine":   f.Line,
						"startColumn": f.Col,
					},
				},
			}},
		})
	}
	return map[string]any{
		"$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		"version": "2.1.0",
		"runs": []map[string]any{{
			"tool": map[string]any{
				"driver": map[string]any{
					"name":    "directload-vet",
					"version": toolVersion,
					"rules":   rules,
				},
			},
			"results": results,
		}},
	}
}
