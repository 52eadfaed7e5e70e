// Command perfbench is the repository's benchmark of the attack
// pipeline: four workloads (fig3-10k, table2, short-attacks,
// masked-cpa), end-to-end metrics from untraced runs and a per-layer
// split from a traced run. See README.md in this directory.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload fig3-10k --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when any operation errs or fails its output check.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is the number of extra processes each run starts only to
// time set-up; setup_s is the median over them and the measured run.
const setupProbes = 20

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the committed seed is the default")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	role := flag.String("role", "", "internal: probe or run, the child processes of one measurement")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var err error
	switch *role {
	case "":
		err = drive(*workload, *seed, *seconds, *traced == 1)
	case "probe", "run":
		err = child(*role, *workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errFailed reports that the run completed but an operation failed.
var errFailed = errors.New("operations failed their output check")

// drive measures one workload (or each in turn for "all") in child
// processes and prints the metrics.
func drive(name string, seed int64, seconds int, traced bool) error {
	if name == "all" {
		return driveAll(seed, seconds)
	}
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
	}
	res, rep, err := measure(name, seed, seconds, traced)
	if err != nil {
		return err
	}
	printReport(os.Stdout, name, rep, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errFailed
	}
	return nil
}

// driveAll runs every workload untraced and traced, printing each
// block; its last line carries every metric as <workload>.<metric>.
func driveAll(seed int64, seconds int) error {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, rep, err := measure(name, seed, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printReport(os.Stdout, name, rep, res)
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, m := range res.Metrics {
				all.Metrics[name+"."+k] = m
			}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !all.Correct {
		return errFailed
	}
	return nil
}

// measure runs the set-up probes and the measured child of one run.
func measure(name string, seed int64, seconds int, traced bool) (result, *report, error) {
	var setups []float64
	for k := 0; k < setupProbes; k++ {
		c, err := spawn("probe", name, seed, seconds, traced)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, c.setup.Seconds())
	}
	c, err := spawn("run", name, seed, seconds, traced)
	if err != nil {
		return result{}, nil, err
	}
	setups = append(setups, c.setup.Seconds())
	lines := strings.Split(strings.TrimSpace(c.stdout), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return result{}, nil, fmt.Errorf("reading the measured run's report: %w", err)
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	if traced {
		for k, m := range rep.Layers {
			res.Metrics[k] = m
		}
	} else {
		traces, wall, cpu := passMedians(rep.Passes)
		res.Metrics["traces_per_s"] = metric{traces / wall, "traces/s"}
		res.Metrics["cpu_s_per_ktrace"] = metric{cpu / traces * 1000, "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{float64(c.maxRSS) / 1024, "MB"}
	}
	for k := range res.Metrics {
		if err := validName(k); err != nil {
			return result{}, nil, err
		}
	}
	return res, &rep, nil
}

// passMedians reduces a run's passes to one representative pass: the
// traces of a pass, and the sums over operations of each operation's
// median wall and CPU time across the passes. A burst of outside load
// during one pass moves a median little.
func passMedians(passes []pass) (traces, wall, cpu float64) {
	for i := range passes[0].Wall {
		var ws, cs []float64
		for _, p := range passes {
			ws = append(ws, p.Wall[i])
			cs = append(cs, p.CPU[i])
		}
		wall += median(ws)
		cpu += median(cs)
	}
	return float64(passes[0].Traces), wall, cpu
}

// childRun is one finished child process.
type childRun struct {
	setup  time.Duration // from start until the child signalled readiness
	stdout string
	maxRSS int64 // peak resident set, KiB
}

// spawn starts this program in the given role and waits for it. The
// child signals the end of its set-up by writing one byte to file
// descriptor 3; set-up time runs from just before the start to that
// byte's arrival.
func spawn(role, name string, seed int64, seconds int, traced bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--role", role, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", tr)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// The child dies with this process, so no measurement outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	cmd.ExtraFiles = []*os.File{w}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		w.Close()
		return nil, err
	}
	w.Close()
	var b [1]byte
	_, readErr := io.ReadFull(r, b[:])
	setup := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	if readErr != nil {
		return nil, fmt.Errorf("%s child never finished set-up: %w", role, readErr)
	}
	c := &childRun{setup: setup, stdout: out.String()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSS = ru.Maxrss
	}
	return c, nil
}

// printReport prints a run's metrics by name and unit, its error rate
// and host record, and any failures.
func printReport(w io.Writer, name string, rep *report, res result) {
	mode := "untraced"
	if len(rep.Layers) > 0 {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, %d passes, %d operations)\n", name, mode, len(rep.Passes), rep.Attempted)
	host, _ := json.Marshal(rep.Host)
	fmt.Fprintf(w, "host %s\n", host)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-36s %16.6g share (%d of %d operations)\n", "error_rate",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "FAILED %s\n", e)
	}
}
