package obs

import (
	"flag"
	"net"
	"net/http"
	_ "net/http/pprof" // registers its handlers on http.DefaultServeMux
	"os"
)

// CLIMode says what a command does with its registry.
type CLIMode int

const (
	OnRequest CLIMode = iota // nil unless -metrics or -metrics-interval asks for a sink; instrumented paths no-op on nil
	Always                   // kept whether or not a sink is asked for (syningest's store and compactor report into it)
	Served                   // Always, and no -metrics flag: the command serves the registry itself (synserve's /v1/stats)
)

// ParseFlags adds the observability flags every command carries — -metrics
// (final JSON snapshot), -metrics-interval (periodic text dump on stderr) and
// -pprof — to the command line, parses it, and starts what was asked for. It
// returns the command's registry and finish, which the command calls once its
// work is done: it writes the -metrics snapshot and stops the dump.
func ParseFlags(mode CLIMode) (reg *Registry, finish func() error, err error) {
	// The usage strings are the ones the commands grew separately; kept so
	// each command's -h reads as it always has.
	snapshot, example := "pipeline-metrics snapshot", " (e.g. localhost:6060)"
	if mode == Always {
		snapshot, example = "metrics snapshot", ""
	}
	var metricsOut string
	if mode != Served {
		flag.StringVar(&metricsOut, "metrics", "", "write a final "+snapshot+` as JSON to this file ("-" = stdout)`)
	}
	every := flag.Duration("metrics-interval", 0, "periodically dump metrics to stderr at this interval (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address"+example)
	flag.Parse()

	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			return nil, nil, err
		}
	}
	if mode != OnRequest || metricsOut != "" || *every > 0 {
		reg = NewRegistry()
	}
	stop := StartDump(reg, os.Stderr, *every)
	return reg, func() error {
		defer stop()
		if metricsOut == "" {
			return nil
		}
		return writeSnapshotFile(reg.Snapshot(), metricsOut)
	}, nil
}

// writeSnapshotFile writes the snapshot as indented JSON to path, with "-"
// meaning stdout.
func writeSnapshotFile(s Snapshot, path string) error {
	if path == "-" {
		return s.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startPprof serves net/http/pprof on addr from a background goroutine,
// returning once the listener is bound so address errors surface at startup.
// The server runs for the process lifetime.
func startPprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go http.Serve(ln, nil) //nolint:errcheck // lifetime of the process
	return nil
}
