package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds the wait for /v1/readyz after exec.
const readyTimeout = 60 * time.Second

// server is one tbmserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

// freePort asks the kernel for an unused loopback port. The listener
// is closed before the server binds it, so a collision is possible in
// principle; the ready wait then fails the run instead of hanging.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs bin on dir and waits until it answers ready.
// The child is killed with the driver (Pdeathsig), so a crashed or
// interrupted run leaves no server behind.
func startServer(bin, dir, logPath string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-dir", dir, "-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	if err := s.awaitReady(); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w (see %s)", err, logPath)
	}
	return s, nil
}

func (s *server) awaitReady() error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("tbmserve exited before it was ready")
		default:
		}
		resp, err := hc.Get(s.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("tbmserve not ready after %v", readyTimeout)
}

// kill sends SIGKILL and waits until the process is gone.
func (s *server) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU reads a process's user and system CPU seconds from
// /proc/<pid>/stat.
func procCPU(pid int) (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(data))
}

// clockTick is USER_HZ; Linux fixes it at 100 for every supported
// architecture's userspace ABI.
const clockTick = 100.0

func parseProcStat(stat string) (user, sys float64, err error) {
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the last ')'.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("malformed cpu fields")
	}
	return ut / clockTick, st / clockTick, nil
}

// procRSSMB reads the resident set size from /proc/<pid>/status.
func procRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPU returns the driver's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the regular files under dir. The server is still
// running, so a file may be compacted away between the listing and
// the stat; such a file counts for nothing.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
