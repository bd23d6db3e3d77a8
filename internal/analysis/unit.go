package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// Config mirrors the JSON the go command writes to <objdir>/vet.cfg
// when invoking a -vettool (cmd/go/internal/work's vetConfig). Only
// the fields this driver consumes are declared.
type Config struct {
	Compiler   string
	ImportPath string
	GoFiles    []string

	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// RunUnit executes the vet-tool protocol for one package: read the
// config file the go command wrote, type-check the package against the
// export data the build produced, run the analyzers, and print
// findings to stderr in the file:line:col form `go vet` expects. The
// returned exit code is 0 (clean) or 2 (findings), mirroring the
// x/tools unitchecker.
//
// No analyzer carries facts between packages, but the go command
// caches a package's vet result under the file named by
// cfg.VetxOutput, so every run leaves an empty one there — including
// the VetxOnly runs the go command makes over each dependency, which
// have nothing else to do.
func RunUnit(cfgFile string, analyzers []*Analyzer) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "directload-vet: %v\n", err)
		return 1
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "directload-vet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	pkg, err := loadUnit(cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "directload-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags, err := Run(pkg, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "directload-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("%s: no Go files", path)
	}
	return cfg, nil
}

// loadUnit parses and type-checks the package described by cfg, using
// the export data files of already-built dependencies.
func loadUnit(cfg *Config) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	info := NewInfo()
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
