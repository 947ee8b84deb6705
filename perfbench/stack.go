package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"repro/internal/server"
	"repro/internal/wire"
)

// namespace is the one namespace every workload feeds.
const namespace = "bench"

// stack is the serving path covserved wires together, assembled in
// process: a namespace directory with a WAL per namespace (fsync on a
// timer), the binary wire ingest listener and the HTTP query handler,
// both on loopback.
type stack struct {
	multi  *server.Multi
	eng    *server.Engine
	wire   *wire.Server
	http   *http.Server
	client *http.Client

	wireAddr string
	queryURL string
	serving  sync.WaitGroup
}

// startStack opens the serving path over the WAL root dir. With a
// config it creates the namespace; without one it recovers the
// namespace from the WAL a previous stack left behind.
func startStack(dir string, cfg *server.Config, k int) (*stack, error) {
	m := server.NewMulti(namespace)
	m.SetDurability(&server.WALConfig{Dir: dir, Fsync: "interval"})
	var (
		eng *server.Engine
		err error
	)
	if cfg != nil {
		eng, err = m.Create(namespace, *cfg)
	} else if _, err = m.RecoverNamespaces(); err == nil {
		var ok bool
		if eng, ok = m.Get(namespace); !ok {
			err = fmt.Errorf("namespace %q not recovered from %s", namespace, dir)
		}
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wln.Close()
		m.Close()
		return nil, err
	}
	s := &stack{
		multi:    m,
		eng:      eng,
		wire:     wire.NewServer(m, wire.Options{}),
		http:     &http.Server{Handler: server.NewMultiHandler(m, server.HTTPOptions{})},
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		wireAddr: wln.Addr().String(),
		queryURL: fmt.Sprintf("http://%s/v1/ns/%s/query?algo=kcover&k=%d", hln.Addr(), namespace, k),
	}
	s.serving.Add(2)
	go func() {
		defer s.serving.Done()
		s.wire.Serve(wln)
	}()
	go func() {
		defer s.serving.Done()
		s.http.Serve(hln)
	}()
	return s, nil
}

// dial opens the one wire ingest connection of a workload.
func (s *stack) dial() (*wire.Conn, error) {
	return wire.Dial(s.wireAddr, wire.Hello{
		Namespace: namespace,
		Engine:    string(s.eng.ModeName()),
		Ops:       s.eng.SupportsDeletes(),
	})
}

// query runs a k-cover query over HTTP; fresh adds refresh=1, which
// merges every shard before answering.
func (s *stack) query(fresh bool) (*server.QueryResult, error) {
	url := s.queryURL
	if fresh {
		url += "&refresh=1"
	}
	resp, err := s.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("query: HTTP %d: %s", resp.StatusCode, body)
	}
	var res server.QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("query: decoding answer: %w", err)
	}
	// Drain so the keep-alive connection is reused by the next query.
	_, err = io.Copy(io.Discard, resp.Body)
	return &res, err
}

// close stops the listeners and the engines. No checkpoint is taken, so
// closing is a crash as far as the WAL is concerned: the next stack over
// the same directory replays the whole log.
func (s *stack) close() error {
	werr := s.wire.Close()
	herr := s.http.Close()
	s.serving.Wait()
	s.client.CloseIdleConnections()
	merr := s.multi.Close()
	return errors.Join(werr, herr, merr)
}
