// Command perfbench is packetgame's benchmark: one end-to-end workload per
// deployment shape — a single gate, PGSP ingest, and a coordinator with its
// workers — each driven in one process from a seed, with output checks, and
// a traced mode that times the calls into every module from outside.
//
// Usage (run.sh builds it from the surrounding source tree first):
//
//	perfbench --workload gate-campus --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; untraced runs report the
// end-to-end metrics, traced runs the per-layer ones (see README.md).
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"packetgame/internal/dataset"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/predictor"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	rev      string
	// tiny shrinks every fleet for the benchmark's own tests.
	tiny bool
	// selector, when set, replaces the single gate's optimizer; the tests
	// plant a faulty one to prove the checks trip.
	selector knapsack.Selector
}

// instance is one set-up workload, ready for a single timed section.
type instance interface {
	// run serves rounds for d and returns the section's results.
	run(d time.Duration) (*section, error)
	// fingerprint digests what set-up built deterministically (the
	// trained weights); repeated set-ups must agree.
	fingerprint() uint64
	close()
}

// workload builds instances; traced instances carry the tracing wrappers.
type workload struct {
	name  string
	setup func(c config, traced bool) (instance, error)
}

var workloads = []workload{
	{"gate-campus", setupCampus},
	{"ingest-paced", setupIngest},
	{"cluster-sparse", setupCluster},
}

const (
	// A run sets its workload up at least minSetups times, and more — up
	// to maxSetups — until the set-ups took setupSeconds in all, so that
	// cheap set-ups, whose times are noisy, get more samples; setup_s is
	// their median. The last set-up serves the timed section.
	minSetups    = 5
	maxSetups    = 15
	setupSeconds = 1.0
	// decodeWorkers is the decode parallelism of every workload, split
	// between the workers on the cluster.
	decodeWorkers = 2
	// budgetFraction is every workload's decode budget, in P-frame units
	// per stream delivering in a round.
	budgetFraction = 0.1
	// frameInterval is the closed loops' on-time deadline: one frame at
	// the cameras' 25 FPS.
	frameInterval = 40 * time.Millisecond
)

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload: gate-campus, ingest-paced, or cluster-sparse")
	flag.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&c.seconds, "seconds", 10, "seconds of timed rounds")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "directory for traces and journals")
	flag.StringVar(&c.rev, "rev", "", "git revision of the tree, for the stamp (empty: not a git checkout)")
	flag.Parse()
	c.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if c.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := execute(c, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// execute sets the workload up, runs its timed section (two in a traced
// run: untraced, then traced, each for half the time), checks the output
// and assembles the result. Diagnostics go to log.
func execute(c config, log io.Writer) (result, error) {
	w, err := findWorkload(c.workload)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "stamp %s\n", hostStamp(c.rev))

	var setupS []float64
	var prints []uint64
	setupOne := func(traced bool) (instance, error) {
		// Every set-up starts from a collected heap whose free memory went
		// back to the OS, so it neither pays for the garbage its
		// predecessor left nor reuses the pages that one faulted in: each
		// set-up costs what the first one in a fresh process does.
		debug.FreeOSMemory()
		t0 := time.Now()
		inst, err := w.setup(c, traced)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		prints = append(prints, inst.fingerprint())
		return inst, nil
	}
	// Set-ups that only count towards setup_s; the next one is the timed
	// section's.
	for len(setupS)+1 < minSetups || (sum(setupS) < setupSeconds && len(setupS)+1 < maxSetups) {
		inst, err := setupOne(false)
		if err != nil {
			return result{}, err
		}
		inst.close()
	}

	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	plain, err := runSection(setupOne, false, d)
	if err != nil {
		return result{}, err
	}
	secs := []*section{plain}
	var traced *section
	if c.trace {
		if traced, err = runSection(setupOne, true, d); err != nil {
			return result{}, err
		}
		secs = append(secs, traced)
	}

	res := result{Correct: true}
	problem := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(log, "FAIL "+format+"\n", args...)
	}
	for k, p := range prints {
		if p != prints[0] {
			problem("set-up %d built a different fingerprint (%x) than set-up 0 (%x)", k, p, prints[0])
		}
	}
	for k, s := range secs {
		kind := [2]string{"untraced", "traced"}[k]
		res.Attempted += s.attempted
		res.Failed += s.failed
		if s.failed > 0 {
			problem("%s: %d of %d operations failed", kind, s.failed, s.attempted)
		}
		for _, p := range s.ck.problems {
			problem("%s: %s", kind, p)
		}
		if s.ck.nproblems > len(s.ck.problems) {
			problem("%s: %d more check failures", kind, s.ck.nproblems-len(s.ck.problems))
		}
		for _, n := range s.notes {
			fmt.Fprintf(log, "%s: %s\n", kind, n)
		}
		lo, hi := s.counted()
		fmt.Fprintf(log, "%s: %d rounds (%d timed), decision hash %016x\n", kind, s.tl.rounds(), hi-lo, s.ck.hash())
	}
	if traced != nil {
		// Tracing must not change a decision: compare the common prefix.
		n := min(plain.tl.rounds(), traced.tl.rounds(), len(plain.ck.hashes), len(traced.ck.hashes))
		if a, b := plain.ck.hashAt(n), traced.ck.hashAt(n); a != b {
			problem("traced decisions diverged from untraced: hash over %d rounds %016x vs %016x", n, b, a)
		} else {
			fmt.Fprintf(log, "traced = untraced over %d rounds: %016x\n", n, a)
		}
	}

	setupMed := median(append([]float64(nil), setupS...))
	if !c.trace {
		if err := plain.writeRounds(filepath.Join(c.workdir, "rounds-"+c.workload+".csv")); err != nil {
			return result{}, err
		}
		vals := plain.endToEnd()
		vals["setup_s"] = setupMed
		res.Metrics = fill(endToEnd, vals)
		lo, hi := plain.counted()
		fmt.Fprintf(log, "samples: %d timed rounds", hi-lo)
		if plain.quiet > 0 {
			fmt.Fprintf(log, ", %d of them in the quiet stretches behind the p50", plain.quiet)
		}
		fmt.Fprintf(log, "; setup_s median of %d: %v\n", len(setupS), setupS)
	} else {
		vals := traced.layers
		plain.goLayers(vals)
		// The two sections ran one after the other on a shared host; taking
		// each one's median round time as the end-to-end metric does (see
		// section.endToEnd) keeps a disturbance in one of them from passing
		// for tracing cost.
		vals["trace.overhead_frac"] = traced.endToEnd()["round_ms_p50"]/plain.endToEnd()["round_ms_p50"] - 1
		res.Metrics = fill(perLayer, vals)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problem("metric %s missing or not finite", d.Name)
			res.Metrics[d.Name] = metric{Value: 0, Unit: d.Unit}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		problem("no operation attempted")
	}
	return res, nil
}

// runSection sets up one instance and runs its timed section.
func runSection(setupOne func(bool) (instance, error), traced bool, d time.Duration) (*section, error) {
	inst, err := setupOne(traced)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	s, err := inst.run(d)
	if err != nil {
		return nil, err
	}
	if traced && s.layers == nil {
		return nil, fmt.Errorf("traced section produced no layer metrics")
	}
	return s, nil
}

// trainPredictor trains the contextual PC predictor with cmd/pgtrain's
// default recipe (24 Campus1K cameras, 5000 rounds, 40 epochs, seed 1), the
// weight file a deployment would load. The recipe is fixed, not drawn from
// the workload seed: the model is part of the system under test, the seed
// only varies its inputs. It returns the predictor and a digest of its
// weights.
func trainPredictor(tiny bool) (*predictor.Predictor, uint64, error) {
	streams, rounds, epochs := 24, 5000, 40
	if tiny {
		streams, rounds, epochs = 6, 200, 2
	}
	const seed, window = 1, 5
	corpus := dataset.Campus1K(dataset.Campus1KConfig{Cameras: streams, Seed: seed})
	samples, err := dataset.Collect(corpus, []infer.Task{infer.PersonCounting{}}, window, rounds)
	if err != nil {
		return nil, 0, err
	}
	train := dataset.Balance(samples, 0, seed)
	pcfg := predictor.DefaultConfig()
	pcfg.Window = window
	pcfg.Tasks = 1
	pcfg.Seed = seed
	p, err := predictor.New(pcfg)
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.Train(train, predictor.TrainOptions{Epochs: epochs, LR: 0.003, Seed: seed}); err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, 0, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return p, h.Sum64(), nil
}

// hostStamp fingerprints the host and the code for the record: CPU model,
// logical CPUs, GOMAXPROCS, Go version, the git revision when the tree is a
// git checkout, and always a digest of the Go sources under the working
// directory, which names the code where there is no git metadata.
func hostStamp(rev string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	stamp := map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git":        rev,
		"src":        sourceDigest(),
	}
	b, _ := json.Marshal(stamp) // a map of strings and ints always encodes
	return string(b)
}

// sourceDigest hashes every .go and go.mod file under the working
// directory, skipping hidden directories such as the build directory.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
