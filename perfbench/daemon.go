package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a speedtestd child process serving the ingest API.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port of the ingest API

	mu     sync.Mutex
	stderr bytes.Buffer
	exited chan struct{}
}

var ingestListening = regexp.MustCompile(`ingest listening on (\S+)`)

// startDaemon spawns speedtestd with args and waits until its ingest
// listener is up. The raw speed-test listener gets an ephemeral port so
// concurrent runs never collide.
func startDaemon(bin string, args []string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-ingest", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start speedtestd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		found := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if m := ingestListening.FindStringSubmatch(line); m != nil && !found {
				found = true
				addrc <- m[1]
			}
		}
		io.Copy(io.Discard, pipe)
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("speedtestd exited before listening:\n%s", d.log())
	case <-time.After(150 * time.Second):
		d.kill()
		return nil, fmt.Errorf("speedtestd did not listen within 150s:\n%s", d.log())
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// stop interrupts the daemon (its clean shutdown path) and waits for it
// to exit, killing it if it takes longer than a minute.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("speedtestd did not stop within 60s")
	}
	if st := d.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("speedtestd exited with %v:\n%s", st, d.log())
	}
	return nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// vmHWM reads VmHWM of /proc/<pid>/status in MiB.
func vmHWM(pid string) (float64, error) { return procStatusMiB(pid, "VmHWM:") }

// procStatusMiB reads one kB field of /proc/<pid>/status in MiB.
func procStatusMiB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// childAttr makes a child die with the benchmark, so an interrupted run
// leaves no daemon behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

// procCPUSeconds reads a process's user+system CPU time.
func procCPUSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// rssSampler reads a process's VmRSS every 50 ms until stopped.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mib   []float64
}

func sampleRSS(pid string) *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stopc:
				return
			case <-t.C:
				if v, err := procStatusMiB(pid, "VmRSS:"); err == nil {
					r.mib = append(r.mib, v)
				}
			}
		}
	}()
	return r
}

// stop ends sampling and returns the RSS samples.
func (r *rssSampler) stop() usage {
	close(r.stopc)
	<-r.done
	return usage{rss: r.mib}
}

// maxRSSMiB is a finished child's peak resident set from its rusage.
func maxRSSMiB(st *os.ProcessState) float64 {
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// usage is the system under test's resident set and CPU time over the
// timed window.
type usage struct {
	peak float64   // VmHWM (MiB): the high-water mark since start
	rss  []float64 // VmRSS samples (MiB)
	cpu  float64   // user+system CPU seconds
}

// report sets cpu_ms, the CPU time the system under test spent per
// operation scaled to the reference speed (see calib.go), and prints the
// unscaled figure beside it; and rss_mb, the median sampled resident set:
// the footprint the system holds while it serves, which unlike the
// high-water mark (printed as peak_rss_mb) does not hinge on where one GC
// cycle fell.
func (m usage) report(e *env, res *result, perOpMs, scaledMs float64) {
	e.named("cpu_ms.measured", perOpMs, "ms")
	e.gate(res, "cpu_ms", scaledMs, "ms")
	e.named("peak_rss_mb", m.peak, "MiB")
	e.gate(res, "rss_mb", Median(m.rss), "MiB")
}

// statsz is the subset of GET /statsz the benchmark reconciles.
type statsz struct {
	Accepted   uint64 `json:"accepted"`
	Rejected   uint64 `json:"rejected"`
	Queued     uint64 `json:"queued"`
	SealedRows uint64 `json:"sealed_rows"`
	TileCache  struct {
		Refolds       uint64 `json:"refolds"`
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
	} `json:"tile_cache"`
	Models map[string]struct {
		Generation uint64 `json:"generation"`
	} `json:"models"`
}

func (s statsz) generations() uint64 {
	var n uint64
	for _, m := range s.Models {
		n += m.Generation
	}
	return n
}

// getStats fetches /statsz from base (http://host:port).
func getStats(base string) (statsz, error) {
	var st statsz
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statsz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitDrained polls /statsz until every accepted row is sealed, which
// takes at most the pipeline's batch age after the last ingest.
func waitDrained(base string, timeout time.Duration) (statsz, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := getStats(base)
		if err != nil {
			return st, err
		}
		if st.SealedRows == st.Accepted && st.Queued == st.Accepted {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("not drained after %v: accepted %d, queued %d, sealed %d",
				timeout, st.Accepted, st.Queued, st.SealedRows)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
