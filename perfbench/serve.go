package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one flashmem-serve process on a loopback port.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	start  time.Time
	stderr bytes.Buffer

	done    chan struct{} // closed once the process has exited
	waitErr error         // the exit status, set before done closes
}

// startServer launches the flashmem-serve binary with the benchmark's
// solver budget plus extra flags. The process dies with the benchmark even
// if the benchmark is killed.
func startServer(bin string, extra ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr}, serverFlags...)
	s := &serverProc{base: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append(args, extra...)...)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /healthz until the server answers and returns the time
// from process start to the first answer.
func (s *serverProc) waitReady(c *conn) (time.Duration, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return 0, fmt.Errorf("flashmem-serve exited during boot (%v): %s", s.waitErr, s.stderr.String())
		default:
		}
		resp, err := c.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return 0, errors.New("flashmem-serve not ready after 60s")
}

// peakRSSMB reads the process's resident high-water mark (VmHWM) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in server status")
}

// stop asks the server to shut down (it saves its snapshot when started
// with -save) and waits for it to exit; a server that does not exit within
// 30s is killed.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signal flashmem-serve: %w", err)
	}
	select {
	case <-s.done:
		if s.waitErr != nil {
			return fmt.Errorf("flashmem-serve exit: %v: %s", s.waitErr, s.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("flashmem-serve did not exit within 30s of SIGTERM")
	}
}

// kill ends the process if it is still running and waits for it. It is
// safe to call after stop, and more than once.
func (s *serverProc) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.done
}

// conn is one closed-loop client: a keep-alive connection and a response
// buffer reused across requests, so the client adds little garbage of its
// own to the two cores it shares with the server.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// post sends one request and returns the status, the response body (valid
// until the next post) and the latency from send to the last body byte.
func (c *conn) post(url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.buf.Bytes(), lat, nil
}
