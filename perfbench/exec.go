package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ringo/internal/repl"
	"ringo/internal/server"
)

// Resp is the part of a command's answer the checks read.
type Resp struct {
	Message string     `json:"message"`
	Rows    [][]string `json:"rows"`
	Trunc   int        `json:"truncated"`
}

// Executor runs commands in named sessions. The same workload code drives
// ringo-server over HTTP, an in-process server.Server, or bare repl
// engines, so the three timings are of identical command streams.
type Executor interface {
	Create(session string) error
	Drop(session string) error
	Eval(session, cmd string) (Resp, error)
}

// httpExec drives a ringo-server process over loopback HTTP.
type httpExec struct {
	base   string
	client *http.Client
}

func newHTTPExec(base string) *httpExec {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &httpExec{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (h *httpExec) do(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func (h *httpExec) Create(session string) error {
	return h.do("POST", "/sessions", map[string]string{"id": session}, nil)
}

func (h *httpExec) Drop(session string) error {
	return h.do("DELETE", "/sessions/"+session, nil, nil)
}

func (h *httpExec) Eval(session, cmd string) (Resp, error) {
	var r Resp
	err := h.do("POST", "/sessions/"+session+"/query", map[string]string{"cmd": cmd}, &r)
	return r, err
}

// serverExec calls server.Server.Eval in-process: the server layer without
// HTTP.
type serverExec struct{ srv *server.Server }

func (s serverExec) Create(session string) error {
	_, err := s.srv.CreateSession(session)
	return err
}

func (s serverExec) Drop(session string) error {
	if !s.srv.DropSession(session) {
		return fmt.Errorf("no session %q", session)
	}
	return nil
}

func (s serverExec) Eval(session, cmd string) (Resp, error) {
	r, err := s.srv.Eval(session, cmd)
	if err != nil {
		return Resp{}, err
	}
	return fromResult(r), nil
}

// engineExec calls repl.Engine.Eval directly: one engine per session, each
// with its own result cache as the server would install.
type engineExec struct {
	mu   sync.Mutex
	engs map[string]*repl.Engine
}

func newEngineExec() *engineExec { return &engineExec{engs: map[string]*repl.Engine{}} }

func (e *engineExec) Create(session string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.engs[session] != nil {
		return fmt.Errorf("session %q exists", session)
	}
	eng := repl.New(nil)
	eng.SetCache(server.NewLRU(server.DefaultCacheSize))
	e.engs[session] = eng
	return nil
}

func (e *engineExec) Drop(session string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.engs, session)
	return nil
}

func (e *engineExec) Eval(session, cmd string) (Resp, error) {
	e.mu.Lock()
	eng := e.engs[session]
	e.mu.Unlock()
	if eng == nil {
		return Resp{}, fmt.Errorf("no session %q", session)
	}
	r, err := eng.Eval(cmd)
	if err != nil {
		return Resp{}, err
	}
	return fromResult(r), nil
}

func fromResult(r *repl.Result) Resp {
	return Resp{Message: r.Message, Rows: r.Rows, Trunc: r.Truncated}
}
