// Command satin-serve is the cross-process campaign coordinator: a
// long-lived HTTP/JSON server that shards submitted campaign specs, leases
// the shards to pull-based workers with expiry-based reassignment, streams
// per-cell progress, and merges the uploaded per-shard result files into a
// finalized file byte-identical to a single-process run (see EXPERIMENTS.md
// "Sharded campaigns").
//
// One binary, several modes:
//
//	satin-serve -listen 127.0.0.1:8373 -data serve.data     # server
//	satin-serve -url URL -submit grid.json -shards 4        # submit a campaign
//	satin-serve -url URL -worker                            # pull/execute/upload loop
//	satin-serve -url URL -watch c1                          # stream job progress
//	satin-serve -url URL -result c1 -out merged.result      # download merged result
//	satin-serve -url URL -status [-json]                    # job statuses (+stragglers)
//	satin-serve -url URL -timeline c1 -timeline-out t.json  # wall-clock Chrome trace
//	satin-serve -url URL -metrics                           # health probe + /metrics text
//	satin-serve -merge -out merged.result shard-*.result    # offline merge, no server
//
// The server additionally exposes GET /metrics (Prometheus text), /healthz,
// /readyz, and per-job GET /v1/campaigns/{id}/timeline; -log-format selects
// text or json structured logs for the server and worker modes.
//
// Workers execute their shard through the same campaign engine as
// `benchtables -campaign`, so a campaign's finalized bytes are invariant to
// how many processes computed it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"satin"
	"satin/internal/campaign"
	"satin/internal/serve"
	"satin/internal/telemetry"
	"satin/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "satin-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("satin-serve", flag.ContinueOnError)
	fs.SetOutput(out)
	listen := fs.String("listen", "127.0.0.1:8373", "serve mode: address to listen on")
	dataDir := fs.String("data", "satin-serve.data", "serve mode: directory for shard uploads and merged results")
	leaseTTL := fs.Duration("lease-ttl", serve.DefaultLeaseTTL, "serve mode: shard lease expiry (renewed by every progress report)")
	urlFlag := fs.String("url", "", "client modes: server base URL, e.g. http://127.0.0.1:8373")
	submit := fs.String("submit", "", "submit this campaign spec file to -url and print the job status")
	shards := fs.Int("shards", 1, "submit mode: number of shards to partition the campaign into")
	worker := fs.Bool("worker", false, "run the pull worker loop against -url until no work remains")
	name := fs.String("name", "", "worker mode: worker name (default w<pid>)")
	dir := fs.String("dir", "", "worker mode: scratch directory for per-shard result files (default a temp dir)")
	pool := fs.Int("pool", 0, "worker mode: in-process worker goroutines per shard (0 = GOMAXPROCS)")
	watch := fs.String("watch", "", "stream this job's per-cell progress from -url until it finishes")
	status := fs.Bool("status", false, "print every job's status from -url")
	result := fs.String("result", "", "download this job's finalized merged result from -url into -out")
	outFile := fs.String("out", "", "result/merge modes: output file path")
	merge := fs.Bool("merge", false, "offline: merge the positional shard result files into -out (no server involved)")
	logFormat := fs.String("log-format", "text", "serve/worker modes: structured log format, text or json")
	statusJSON := fs.Bool("json", false, "status mode: emit the job statuses as JSON instead of text")
	timeline := fs.String("timeline", "", "download this job's wall-clock Chrome trace from -url")
	timelineOut := fs.String("timeline-out", "", "timeline mode: write the trace to this file (default stdout)")
	metrics := fs.Bool("metrics", false, "probe /healthz and /readyz on -url, then print the /metrics exposition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(errOut, *logFormat)
	if err != nil {
		return err
	}

	client := &serve.Client{BaseURL: *urlFlag}
	needURL := func(mode string) error {
		if *urlFlag == "" {
			return fmt.Errorf("%s needs -url", mode)
		}
		return nil
	}
	switch {
	case *merge:
		if *outFile == "" {
			return fmt.Errorf("-merge needs -out FILE")
		}
		if fs.NArg() == 0 {
			return fmt.Errorf("-merge needs shard result files as arguments")
		}
		n, err := campaign.Merge(*outFile, fs.Args()...)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "merged %d cells from %d shard file(s) into %s\n", n, fs.NArg(), *outFile)
		return nil

	case *submit != "":
		if err := needURL("-submit"); err != nil {
			return err
		}
		data, err := os.ReadFile(*submit)
		if err != nil {
			return fmt.Errorf("reading campaign: %w", err)
		}
		st, err := client.Submit(context.Background(), data, *shards)
		if err != nil {
			return err
		}
		printStatus(out, st)
		return nil

	case *worker:
		if err := needURL("-worker"); err != nil {
			return err
		}
		if *name == "" {
			*name = fmt.Sprintf("w%d", os.Getpid())
		}
		if *dir == "" {
			tmp, err := os.MkdirTemp("", "satin-worker-*")
			if err != nil {
				return fmt.Errorf("worker scratch dir: %w", err)
			}
			defer os.RemoveAll(tmp)
			*dir = tmp
		}
		opt := serve.WorkerOptions{
			Name:    *name,
			Dir:     *dir,
			Trial:   satin.RunSpecTrial,
			Workers: *pool,
			Logger:  logger,
		}
		return serve.RunWorker(context.Background(), client, opt)

	case *watch != "":
		if err := needURL("-watch"); err != nil {
			return err
		}
		return watchJob(context.Background(), client, *watch, out)

	case *status:
		if err := needURL("-status"); err != nil {
			return err
		}
		jobs, err := client.List(context.Background())
		if err != nil {
			return err
		}
		if *statusJSON {
			// The wire JobStatus, verbatim: scripts parse this, so it must
			// round-trip through serve.JobStatus without loss.
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(jobs)
		}
		if len(jobs) == 0 {
			fmt.Fprintln(out, "no campaigns")
			return nil
		}
		for _, st := range jobs {
			printStatus(out, st)
		}
		return nil

	case *timeline != "":
		if err := needURL("-timeline"); err != nil {
			return err
		}
		data, err := client.Timeline(context.Background(), *timeline)
		if err != nil {
			return err
		}
		if *timelineOut == "" {
			_, err = out.Write(data)
			return err
		}
		if err := os.WriteFile(*timelineOut, data, 0o644); err != nil {
			return fmt.Errorf("writing timeline: %w", err)
		}
		fmt.Fprintf(out, "job %s: %d timeline bytes written to %s\n", *timeline, len(data), *timelineOut)
		return nil

	case *metrics:
		if err := needURL("-metrics"); err != nil {
			return err
		}
		if err := client.Healthz(context.Background()); err != nil {
			return err
		}
		data, err := client.MetricsText(context.Background())
		if err != nil {
			return err
		}
		_, err = out.Write(data)
		return err

	case *result != "":
		if err := needURL("-result"); err != nil {
			return err
		}
		if *outFile == "" {
			return fmt.Errorf("-result needs -out FILE")
		}
		data, err := client.Result(context.Background(), *result)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return fmt.Errorf("writing result: %w", err)
		}
		fmt.Fprintf(out, "job %s: %d result bytes written to %s\n", *result, len(data), *outFile)
		return nil

	default:
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("listening: %w", err)
		}
		return serveMode(l, *dataDir, *leaseTTL, errOut, logger)
	}
}

// serveMode runs the coordinator on an existing listener (split from run so
// tests can own the listener and close it to stop the server).
func serveMode(l net.Listener, dataDir string, leaseTTL time.Duration, errOut io.Writer, logger *slog.Logger) error {
	s, err := serve.New(serve.Options{
		DataDir:  dataDir,
		LeaseTTL: leaseTTL,
		Logger:   logger,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(errOut, "satin-serve: listening on %s (data in %s)\n", l.Addr(), dataDir)
	// A closed listener is the clean-shutdown path (tests close it to stop
	// the server), not a failure.
	if err := http.Serve(l, s.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// watchJob streams the job's per-cell progress and prints the final
// verdict. The stream is the same trace.KindCell events an in-process
// campaign publishes on its bus.
func watchJob(ctx context.Context, client *serve.Client, jobID string, out io.Writer) error {
	err := client.StreamEvents(ctx, jobID, 0, func(e trace.Event) error {
		if e.Kind == trace.KindCell {
			fmt.Fprintf(out, "cell %d %s\n", e.Area, e.Detail)
		}
		return nil
	})
	if err != nil {
		return err
	}
	st, err := client.Status(ctx, jobID)
	if err != nil {
		return err
	}
	if st.MergeError != "" {
		return fmt.Errorf("job %s merge failed: %s", st.ID, st.MergeError)
	}
	fmt.Fprintf(out, "job %s finalized: %d/%d cells\n", st.ID, st.Done, st.Cells)
	return nil
}

// printStatus renders one job's status block.
func printStatus(out io.Writer, st serve.JobStatus) {
	name := st.Name
	if name == "" {
		name = "campaign"
	}
	state := "running"
	if st.Finalized {
		state = "finalized"
	} else if st.MergeError != "" {
		state = "merge failed: " + st.MergeError
	}
	fmt.Fprintf(out, "job %s (%s): %d/%d cells, %d shard(s), %s\n",
		st.ID, name, st.Done, st.Cells, len(st.Shards), state)
	for _, sh := range st.Shards {
		line := fmt.Sprintf("  shard %d: %d cells, %s", sh.Shard, sh.Cells, sh.State)
		if sh.Worker != "" && sh.State != serve.StatePending {
			line += " (worker " + sh.Worker + ")"
		}
		fmt.Fprintln(out, line)
	}
	st.Stragglers.Render(out, "  ")
}
