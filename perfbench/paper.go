package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiments"
)

const listReps = 25 // ipcmodel -list launches per run; setup_s is their median

// goldenStream is what `ipcmodel -quick -all` must print: the golden
// snapshots in registry order, each under its section header, stitched
// the way the experiments package's golden test stitches them.
func goldenStream(root string) ([]byte, error) {
	var want bytes.Buffer
	for _, e := range experiments.All() {
		body, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden", e.ID+".txt"))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&want, "==== %s — %s ====\n", e.ID, e.Title)
		want.Write(body)
		fmt.Fprintln(&want)
	}
	return want.Bytes(), nil
}

// listStream is what `ipcmodel -list` must print.
func listStream() []byte {
	var b bytes.Buffer
	for _, e := range experiments.All() {
		fmt.Fprintf(&b, "%-8s %s\n", e.ID, e.Title)
	}
	return b.Bytes()
}

// paperRun is one ipcmodel process: its output, wall time, the offsets
// from launch at which each section finished printing, and its peak
// resident set.
type paperRun struct {
	out      []byte
	wall     time.Duration
	sections []time.Duration
	rssMiB   float64
}

// runIPCModel runs ipcmodel with args, timestamping each section as the
// next section's header (or the end of output) arrives.
func runIPCModel(ctx context.Context, binDir string, args ...string) (paperRun, error) {
	var r paperRun
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, "ipcmodel"), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, fmt.Errorf("start ipcmodel: %w", err)
	}
	var out bytes.Buffer
	br := bufio.NewReaderSize(pipe, 64<<10)
	started := false
	for {
		line, err := br.ReadBytes('\n')
		if bytes.HasPrefix(line, []byte("==== ")) {
			if started {
				r.sections = append(r.sections, time.Since(t0))
			}
			started = true
		}
		out.Write(line)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			_ = cmd.Wait()
			return r, err
		}
	}
	if started {
		r.sections = append(r.sections, time.Since(t0))
	}
	if err := cmd.Wait(); err != nil {
		return r, fmt.Errorf("ipcmodel %v: %w: %s", args, err, stderr.Bytes())
	}
	r.wall = time.Since(t0)
	r.out = out.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMiB = float64(ru.Maxrss) / 1024
	}
	return r, nil
}

// runPaper times sequential quick passes of the experiment registry in
// a fresh ipcmodel process each, checking every pass byte for byte
// against the golden snapshots.
func runPaper(ctx context.Context, o opts) (*result, error) {
	res := newResult()
	want, err := goldenStream(o.root)
	if err != nil {
		return nil, err
	}
	wantList := listStream()
	var setups []float64
	for i := 0; i < listReps; i++ {
		r, err := runIPCModel(ctx, o.binDir, "-list")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(r.out, wantList) {
			return nil, errors.New("ipcmodel -list does not list the registry")
		}
		setups = append(setups, r.wall.Seconds())
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	var passes, rss []float64
	var sections [][]float64
	t0 := time.Now()
	for len(passes) < 2 || time.Since(t0)+time.Duration(median(passes)*float64(time.Second)) <= budget {
		r, err := runIPCModel(ctx, o.binDir, "-quick", "-all", "-parallel", "1")
		res.attempted++
		if err != nil {
			res.failed++
			return res, err
		}
		if !bytes.Equal(r.out, want) {
			res.failed++
			return res, fmt.Errorf("pass %d: output deviates from the golden snapshots\n%s", len(passes)+1, firstDiff(want, r.out))
		}
		passes = append(passes, r.wall.Seconds())
		rss = append(rss, r.rssMiB)
		done := make([]float64, len(r.sections))
		for i, s := range r.sections {
			done[i] = float64(s) / float64(time.Millisecond)
		}
		sections = append(sections, done)
	}
	p50, p99 := sectionLatency(sections)
	pass := median(passes)
	res.metric("setup_s", median(setups), "s")
	res.metric("pass_s", pass, "s")
	res.metric("p50_ms", p50, "ms")
	res.info("p99_ms", p99, "ms")
	res.metric("peak_rss_mb", median(rss), "MiB")
	res.logf("%d passes %v s; section completion per pass p50 %.1fms p99 %.1fms (medians over passes)",
		len(passes), passes, p50, p99)
	return res, nil
}

// sectionLatency is the paper workload's latency: each section of a
// pass is one request, answered when it has printed, counted from the
// launch of the pass. Every pass prints the same sections, so the
// nearest-rank p50 and p99 of one pass always fall on the same ranks;
// each is reported as its median over passes, so the number of passes
// that fit in a run does not change what is measured. With the
// registry's 35 sections the p99 is the last section, the completion
// of the pass.
func sectionLatency(passes [][]float64) (p50, p99 float64) {
	var mid, tail []float64
	for _, done := range passes {
		s := append([]float64(nil), done...)
		sort.Float64s(s)
		mid = append(mid, percentile(s, 50))
		tail = append(tail, percentile(s, 99))
	}
	return median(mid), median(tail)
}

// firstDiff describes where two outputs first differ.
func firstDiff(want, got []byte) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	line := bytes.Count(want[:i], []byte("\n")) + 1
	clip := func(b []byte) []byte {
		if i >= len(b) {
			return nil
		}
		end := min(len(b), i+80)
		return b[i:end]
	}
	return fmt.Sprintf("first difference at line %d: want %q, got %q", line, clip(want), clip(got))
}
