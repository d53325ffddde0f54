package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHelperFleet is not a test: TestFleetDiesWithHarness runs the test
// binary as a stand-in harness that starts real fhc processes under
// guarded and then leaves by the exit path FHCBENCH_HELPER names.
func TestHelperFleet(t *testing.T) {
	mode := os.Getenv("FHCBENCH_HELPER")
	if mode == "" {
		t.Skip("helper process for TestFleetDiesWithHarness")
	}
	os.Exit(guarded(func() int {
		for i := range 2 {
			// A router needs no artifact; its worker need not exist.
			p, err := spawn(fmt.Sprintf("r%d", i), os.Getenv("FHCBENCH_FHC"),
				"route", "-listen", "127.0.0.1:0", "-worker", "w0=http://127.0.0.1:9")
			if err != nil {
				fmt.Println("error", err)
				return 1
			}
			fmt.Println("pid", p.pid())
		}
		fmt.Println("ready")
		switch mode {
		case "return":
			return 1
		case "panic":
			panic("helper panics on the main goroutine")
		case "goroutine-panic":
			go func() { panic("helper panics on another goroutine") }()
		}
		select {} // "signal": wait for SIGINT
	}))
}

func TestFleetDiesWithHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fhc")
	}
	fhc, err := buildFHC("../..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"return", "panic", "goroutine-panic", "signal"} {
		t.Run(mode, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestHelperFleet$")
			cmd.Env = append(os.Environ(), "FHCBENCH_HELPER="+mode, "FHCBENCH_FHC="+fhc)
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var pids []int
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				line := sc.Text()
				if rest, ok := strings.CutPrefix(line, "pid "); ok {
					pid, err := strconv.Atoi(rest)
					if err != nil {
						t.Fatal(err)
					}
					pids = append(pids, pid)
				}
				if line == "ready" || strings.HasPrefix(line, "error") {
					break
				}
			}
			if len(pids) != 2 {
				_ = cmd.Process.Kill()
				t.Fatalf("helper started %d fhc processes, want 2", len(pids))
			}
			if mode == "signal" {
				if err := cmd.Process.Signal(os.Interrupt); err != nil {
					t.Fatal(err)
				}
			}
			err = cmd.Wait()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("helper exited with %v, want a failure status", err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for _, pid := range pids {
				for alive(pid) {
					if time.Now().After(deadline) {
						_ = syscall.Kill(pid, syscall.SIGKILL)
						t.Fatalf("fhc process %d survived its harness (%s)", pid, mode)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		})
	}
}

// alive reports whether pid is a running process; a zombie awaiting its
// reaper has already died.
func alive(pid int) bool {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	return len(f) > 0 && f[0] != "Z" && f[0] != "X"
}
