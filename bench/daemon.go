package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDaemon compiles cmd/knivesd into dir and returns the binary's path
// and how long the build took. Compile time is recorded in the environment
// block, never in a metric: it depends on the build cache, not on the
// program.
func buildDaemon(dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "knivesd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/knivesd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build knivesd: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// daemon is one knivesd subprocess listening on a kernel-chosen loopback
// port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string    // host:port from the daemon's "listening on" line
	started time.Time // just before exec
	exited  chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports
}

// listenTimeout bounds the wait for the daemon's "listening on" line; WAL
// recovery and -prewarm run before it, and both take well under a second.
const listenTimeout = 60 * time.Second

// startDaemon execs the daemon with -addr 127.0.0.1:0 plus args and waits
// for the address it reports. The procs registry learns about the process
// before anything can fail, so every exit path kills it.
func startDaemon(procs *procSet, bin string, args ...string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.SysProcAttr = childSysProcAttr()
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("start knivesd: %w", err)
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start knivesd: %w", err)
	}
	procs.add(d)

	addrc := make(chan string, 1)
	go func() {
		// Drain stderr for the daemon's whole life: a full pipe would block
		// its logging. Wait only after the reads are done, as os/exec asks.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.TrimSpace(a):
				default:
				}
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		_ = d.cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()

	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		procs.remove(d)
		return nil, fmt.Errorf("knivesd exited before listening:\n%s", d.stderrTail())
	case <-time.After(listenTimeout):
		procs.stop(d)
		return nil, fmt.Errorf("knivesd did not report a listen address within %s:\n%s", listenTimeout, d.stderrTail())
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// kill sends SIGKILL and waits until the process has been reaped. Safe to
// call more than once and on a daemon that already exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is the only error and is fine
	<-d.exited
}

// procSet tracks the live daemons so that any exit path — return, failure,
// SIGINT — can kill them all and wait for each.
type procSet struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

func newProcSet() *procSet { return &procSet{live: make(map[*daemon]struct{})} }

func (p *procSet) add(d *daemon) {
	p.mu.Lock()
	p.live[d] = struct{}{}
	p.mu.Unlock()
}

func (p *procSet) remove(d *daemon) {
	p.mu.Lock()
	delete(p.live, d)
	p.mu.Unlock()
}

// stop kills d, waits for it, and forgets it.
func (p *procSet) stop(d *daemon) {
	d.kill()
	p.remove(d)
}

// killAll kills and reaps every daemon still registered.
func (p *procSet) killAll() {
	p.mu.Lock()
	ds := make([]*daemon, 0, len(p.live))
	for d := range p.live {
		ds = append(ds, d)
	}
	p.live = make(map[*daemon]struct{})
	p.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// procSample is one reading of the daemon's /proc/<pid> accounting.
type procSample struct {
	utimeTicks, stimeTicks int64
	vmHWMKB                int64
	writeBytes             int64
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 on every architecture Go supports; sysconf is not
// reachable without cgo.
const clockTick = 100

func (s procSample) cpuSeconds() float64 {
	return float64(s.utimeTicks+s.stimeTicks) / clockTick
}

// sampleProc reads utime+stime, the resident-set high-water mark and the
// bytes the process caused to be written to storage.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))

	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// comm may hold spaces and parentheses; fields are positional only
	// after its closing one. utime and stime are fields 14 and 15, so 12th
	// and 13th after "pid (comm)".
	i := strings.LastIndexByte(string(stat), ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return s, errors.New("malformed /proc stat")
	}
	if s.utimeTicks, err = strconv.ParseInt(fields[11], 10, 64); err != nil {
		return s, fmt.Errorf("proc stat utime: %w", err)
	}
	if s.stimeTicks, err = strconv.ParseInt(fields[12], 10, 64); err != nil {
		return s, fmt.Errorf("proc stat stime: %w", err)
	}

	if s.vmHWMKB, err = procField(filepath.Join(dir, "status"), "VmHWM:"); err != nil {
		return s, err
	}
	if s.writeBytes, err = procField(filepath.Join(dir, "io"), "write_bytes:"); err != nil {
		return s, err
	}
	return s, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (VmHWM) at
// the current resident set. Where the kernel refuses, the mark simply keeps
// accumulating, and later readings are peaks since the daemon started
// instead of peaks of their segment.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(filepath.Join("/proc", strconv.Itoa(pid), "clear_refs"), []byte("5"), 0)
}

// procField returns the first integer after key in a "key value [unit]"
// proc file.
func procField(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}
