// Command tracecap captures, inspects, and re-simulates instruction traces
// in the repository's compact binary format (see internal/trace).
//
// Usage:
//
//	tracecap capture -fn Auth-G -inv 0 -o auth.lwt
//	tracecap info auth.lwt
//	tracecap run [-platform skylake|broadwell] [-lukewarm] auth.lwt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lukewarm"
	"lukewarm/internal/cpu"
	"lukewarm/internal/program"
	"lukewarm/internal/trace"
	"lukewarm/internal/vm"
	"lukewarm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a subcommand's flag error, already reported by its flag
// set.
var errUsage = errors.New("usage")

// run executes one subcommand and returns the exit status: 0 on success or
// -h, 1 on a failed capture, decode or simulation, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "capture":
		err = capture(args[1:], stdout, stderr)
	case "info":
		err = info(args[1:], stdout)
	case "run":
		err = simulate(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "tracecap:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `tracecap - capture, inspect and re-simulate instruction traces

subcommands:
  capture -fn <function> [-inv N] -o <file>   capture one invocation
  info <file>                                 decode and summarize a trace
  run [-platform P] [-lukewarm] <file>        simulate a trace`)
}

// parse parses a subcommand's flags, reporting errors to stderr.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	return nil
}

func capture(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	fn := fs.String("fn", "Auth-G", "function name (see `lukewarm table2`)")
	inv := fs.Uint64("inv", 0, "invocation id")
	out := fs.String("o", "", "output file")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("capture needs -o <file>")
	}
	w, err := workload.ByName(*fn)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := trace.Capture(w.Program, *inv, f)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "captured %s invocation %d: %d instructions, %d bytes (%.2f B/instr)\n",
		*fn, *inv, n, st.Size(), float64(st.Size())/float64(n))
	return nil
}

func info(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("info needs exactly one trace file")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var ops [4]uint64
	var taken, blocks uint64
	var lastBlk uint64 = ^uint64(0)
	footprint := map[uint64]struct{}{}
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		ops[in.Op]++
		if in.Op == program.OpBranch && in.Taken {
			taken++
		}
		if blk := in.VAddr &^ 63; blk != lastBlk {
			lastBlk = blk
			blocks++
			footprint[blk] = struct{}{}
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("decoding: %w", err)
	}
	total := r.Count()
	fmt.Fprintf(stdout, "instructions: %d\n", total)
	fmt.Fprintf(stdout, "  plain:  %d (%.1f%%)\n", ops[program.OpPlain], pct(ops[program.OpPlain], total))
	fmt.Fprintf(stdout, "  loads:  %d (%.1f%%)\n", ops[program.OpLoad], pct(ops[program.OpLoad], total))
	fmt.Fprintf(stdout, "  stores: %d (%.1f%%)\n", ops[program.OpStore], pct(ops[program.OpStore], total))
	fmt.Fprintf(stdout, "  branch: %d (%.1f%%), %d taken\n", ops[program.OpBranch], pct(ops[program.OpBranch], total), taken)
	fmt.Fprintf(stdout, "code blocks executed: %d, unique footprint: %d blocks (%.0f KB)\n",
		blocks, len(footprint), float64(len(footprint))*64/1024)
	return nil
}

func simulate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	platform := fs.String("platform", "skylake", "skylake or broadwell")
	luke := fs.Bool("lukewarm", true, "flush microarchitectural state before the run")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run needs exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var cfg cpu.Config
	switch *platform {
	case "skylake":
		cfg = cpu.SkylakeConfig()
	case "broadwell":
		cfg = cpu.BroadwellConfig()
	default:
		return fmt.Errorf("unknown platform %q", *platform)
	}
	c := cpu.NewCore(cfg)
	c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
	if *luke {
		c.FlushMicroarch()
	}
	res := c.RunInvocation(r)
	if err := r.Err(); err != nil {
		return fmt.Errorf("decoding during run: %w", err)
	}
	fmt.Fprintf(stdout, "%s, %s: %d instructions in %d cycles\n", fs.Arg(0), cfg.Name, res.Instrs, res.Cycles)
	fmt.Fprintf(stdout, "CPI %.3f  [retiring %.2f, fetch-lat %.2f, fetch-bw %.2f, bad-spec %.2f, backend %.2f]\n",
		res.CPI(),
		res.Stack.CPIOf(lukewarm.Retiring),
		res.Stack.CPIOf(lukewarm.FetchLatency),
		res.Stack.CPIOf(lukewarm.FetchBandwidth),
		res.Stack.CPIOf(lukewarm.BadSpeculation),
		res.Stack.CPIOf(lukewarm.BackendBound))
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
