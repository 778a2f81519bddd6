package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The driver runs on clientCPU and every server it starts runs on
// serverCPU with GOMAXPROCS 1, so the client never takes CPU time from the
// server and the server's CPU time per op is its own.
const (
	clientCPU   = 0
	serverCPU   = 1
	serverProcs = 1
)

// setAffinity pins thread tid (0: the calling thread) to cpu.
func setAffinity(tid, cpu int) error {
	var mask [16]uint64
	mask[cpu/64] |= 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 && !(tid != 0 && errno == syscall.ESRCH) { // ESRCH: the thread has exited
		return fmt.Errorf("pinning thread %d to CPU %d: %w", tid, cpu, errno)
	}
	return nil
}

// pinSelf pins every thread of this process to cpu. A thread the runtime
// starts later inherits the pin of the thread that starts it.
func pinSelf(cpu int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return fmt.Errorf("bad task id %q", t.Name())
		}
		if err := setAffinity(tid, cpu); err != nil {
			return err
		}
	}
	return nil
}

// startPinned starts cmd on serverCPU: the child inherits the affinity of
// the thread that forks it.
func startPinned(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	err := setAffinity(0, serverCPU)
	if err == nil {
		err = cmd.Start()
	}
	// Back to the client's CPU, with any thread started meanwhile.
	return errors.Join(err, pinSelf(clientCPU))
}

// serverProc is one running lcds-server child process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	stdoutD chan struct{} // closed once the stdout pipe has been drained
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 for user space on every architecture.
const clockTicks = 100

// startServer execs a server binary on serverCPU with args, waits for its
// first healthy /healthz, and returns the process and the time from exec to
// healthy. The child gets
// SIGKILL if this process dies first, so no run leaves a server behind.
func startServer(bin string, args ...string) (*serverProc, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, fmt.Errorf("server stdout: %w", err)
	}
	start := time.Now()
	if err := startPinned(cmd); err != nil {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, stdoutD: make(chan struct{})}

	// The server prints "... serving http://<addr>/" once it listens.
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	go func() {
		drain(br)
		close(s.stdoutD)
	}()
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("server exited before listening: %w", err)
	}
	i := strings.Index(line, "http://")
	if i < 0 {
		s.stop()
		return nil, 0, fmt.Errorf("server banner has no address: %q", line)
	}
	s.addr = strings.TrimSuffix(strings.TrimSpace(line[i+len("http://"):]), "/")

	client := http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server at %s not healthy after 60s", s.addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the server and waits until it has exited.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stdoutD:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.stdoutD
	}
	s.cmd.Wait()
}

// cpuTime returns the server's user+system CPU time so far.
func (s *serverProc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server CPU time: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	text := string(raw)
	f := strings.Fields(text[strings.LastIndexByte(text, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", text)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times in %q", text)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMiB returns the server's peak resident set size (VmHWM) in MiB.
func (s *serverProc) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server status: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// fetchProfile saves a CPU profile of the server taken over secs seconds.
func (s *serverProc) fetchProfile(path string, secs int) error {
	client := http.Client{Timeout: time.Duration(secs+30) * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", s.addr, secs))
	if err != nil {
		return fmt.Errorf("fetching CPU profile: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching CPU profile: status %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.ReadFrom(resp.Body); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
