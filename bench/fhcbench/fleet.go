package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one fleet process: an `fhc serve` worker or the `fhc route`
// router, running in its own process group.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port from the process's start-up banner

	mu   sync.Mutex
	logs []string // the last stderr lines, for error reports

	done chan struct{} // closed once the process has been reaped
}

// live holds every process started and not yet reaped, so killAll can
// stop them from a signal handler or a deferred call on any exit path.
var live = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// bannerAddr matches the address both `fhc serve -http` and `fhc route`
// print to stderr once their listener is bound.
var bannerAddr = regexp.MustCompile(`on http://(\S+)`)

// startTimeout bounds how long a process may take to print its banner.
const startTimeout = 60 * time.Second

// spawn starts bin with args in a new process group and waits for its
// banner. The process is killed with SIGKILL if this process dies first,
// however it dies; a clean exit calls stop or killAll instead.
func spawn(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if err := cmd.Start(); err != nil {
		live.Unlock()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.procs[p] = true
	live.Unlock()

	addr := make(chan string, 1) // one send at most: the first banner
	go p.drain(stderr, addr)
	select {
	case a := <-addr:
		p.addr = a
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("%s exited before it was ready: %s", name, p.tail())
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("%s printed no banner within %v: %s", name, startTimeout, p.tail())
	}
}

// drain reads the process's stderr to EOF, publishing the banner address
// and keeping the last lines, then reaps the process.
func (p *proc) drain(stderr io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(stderr)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.logs = append(p.logs, line)
		if len(p.logs) > 20 {
			p.logs = p.logs[1:]
		}
		p.mu.Unlock()
		if m := bannerAddr.FindStringSubmatch(line); m != nil && !sent {
			addr <- m[1]
			sent = true
		}
	}
	_ = p.cmd.Wait() // the exit status of a process we stop is uninteresting
	close(p.done)
}

func (p *proc) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.logs, " | ")
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the process group to drain with SIGTERM, escalates to
// SIGKILL after a grace period, and returns once the process is reaped.
func (p *proc) stop() {
	_ = syscall.Kill(-p.pid(), syscall.SIGTERM) // ESRCH: already gone
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
		<-p.done
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// killAll SIGKILLs every live process group and waits for each to be
// reaped. It is the exit path for signals and errors, where draining
// politely is not worth the wait.
func killAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
	}
	live.procs = map[*proc]bool{}
	live.Unlock()
	for _, p := range procs {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
		}
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/PID/stat CPU
// times; Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user plus system CPU time process pid has used,
// all its threads included.
func procCPU(pid string) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the fields
	// after it start with the state, field 3, so utime (14) and stime
	// (15) are the 12th and 13th.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %d fields", pid, len(f))
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// procHWM returns process pid's peak resident set size (VmHWM) in bytes.
func procHWM(pid string) (int64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("/proc/" + pid + "/status: no VmHWM")
}
