package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"encdns/perfbench/cpus"
)

// server is the serving stack's child process and its control pipe.
type server struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	ready struct {
		UDP   string `json:"udp"`
		DoH   string `json:"doh"`
		CAPEM string `json:"ca_pem"`
	}
}

// snap is one reading of the server's own counters.
type snap struct {
	Reg           map[string]float64 `json:"reg"`
	Runtime       map[string]float64 `json:"runtime"`
	DoHConnsMax   float64            `json:"doh_conns_max"`
	DoHConnsTotal float64            `json:"doh_conns_total"`
	CPU           time.Duration      `json:"-"`
}

// traceReport is the traced server's span summary.
type traceReport struct {
	Spans map[string]struct {
		Count float64 `json:"count"`
		P50   float64 `json:"p50_ns"`
		P99   float64 `json:"p99_ns"`
	} `json:"spans"`
	Kept          int     `json:"kept"`
	Dropped       float64 `json:"dropped"`
	QueueMax      float64 `json:"queue_max"`
	GoroutinesMax float64 `json:"goroutines_max"`
}

func startServer(bin, workload string, traced bool, spans string, serverCPUs []int) (*server, error) {
	args := []string{"-workload", workload}
	if traced {
		args = append(args, "-trace", "-spans", spans)
	}
	if len(serverCPUs) > 0 {
		args = append(args, "-cpus", cpus.Format(serverCPUs))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, in: in, out: bufio.NewScanner(outPipe)}
	s.out.Buffer(make([]byte, 1<<20), 16<<20)
	if err := s.readLine(&s.ready); err != nil {
		s.kill()
		return nil, fmt.Errorf("server start: %w", err)
	}
	return s, nil
}

func (s *server) readLine(v any) error {
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return err
		}
		return errors.New("server closed its output")
	}
	return json.Unmarshal(s.out.Bytes(), v)
}

func (s *server) call(cmd string, v any) error {
	if _, err := io.WriteString(s.in, cmd+"\n"); err != nil {
		return err
	}
	return s.readLine(v)
}

// snap reads the server's counters and its CPU time.
func (s *server) snap() (*snap, error) {
	var sn snap
	if err := s.call("snap", &sn); err != nil {
		return nil, err
	}
	cpu, err := s.cpu()
	if err != nil {
		return nil, err
	}
	sn.CPU = cpu
	return &sn, nil
}

// cpu is the server's CPU time: the run time of each of its threads
// from /proc/<pid>/task/<tid>/schedstat, in nanoseconds, summed. The
// utime and stime of /proc/<pid>/stat count whole clock ticks (10 ms),
// too coarse for phases of under a second.
func (s *server) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, errors.New("short schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat: %w", err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSSMB is the server's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM")
}

// stop asks the server to shut down and waits for it; a server that does
// not exit within 10 s is killed.
func (s *server) stop() error {
	_, _ = io.WriteString(s.in, "quit\n")
	s.in.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("server did not exit; killed")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// spinner is cmd/spin, which keeps the server's CPUs from going idle.
type spinner struct {
	cmd *exec.Cmd
	in  io.WriteCloser
}

func startSpinner(bin string, serverCPUs []int) (*spinner, error) {
	cmd := exec.Command(bin, "-cpus", cpus.Format(serverCPUs))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spinner{cmd: cmd, in: in}, nil
}

// stop closes the spinner's input, on which it exits, and waits for it;
// one that does not exit within 10 s is killed.
func (s *spinner) stop() {
	s.in.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}
