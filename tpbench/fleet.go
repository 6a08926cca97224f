package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"

	"repro/sample/serve"
	"repro/sample/shard"
)

const ridHeader = "X-Request-ID"

// fleet is one in-process serving stack on real loopback sockets:
// Nodes ingest nodes, each a shard.NewLp coordinator checkpointing into
// its own DirStore, and one aggregator over them. Only the public
// sample/serve API is used.
type fleet struct {
	nodes  []*serve.Node
	stores []*benchStore
	urls   []string
	agg    *serve.Aggregator
	aggURL string

	servers []*http.Server
	serving sync.WaitGroup
	aggTr   *http.Transport
	cliTr   *http.Transport
	client  *http.Client

	// acked is each node's acknowledged stream mass, the harness's
	// own count.
	acked []int64
}

// nodeSeed and aggSeed give every node a distinct seed, as merging
// across nodes requires.
func nodeSeed(seed uint64, j int) uint64 {
	return seed*0x100000001b3 + uint64(j)*0x9e3779b97f4a7c15 + 1
}
func aggSeed(seed uint64) uint64 { return seed*0x2545f4914f6cdd1d + 7 }

// newCoordinator is the node engine every fleet uses.
func newCoordinator(p params, seed uint64) *shard.Coordinator {
	return shard.NewLp(p.P, p.N, p.M, p.Delta, seed, shard.Config{Shards: p.Shards, Queries: p.Queries})
}

// bootFleet starts the nodes and the aggregator. dir holds the stores;
// an empty dir boots nodes without stores (the law check's fleets).
func bootFleet(p params, seed uint64, dir string, t *tracer) (*fleet, error) {
	f := &fleet{acked: make([]int64, p.Nodes)}
	f.cliTr = &http.Transport{MaxIdleConnsPerHost: 4}
	f.client = &http.Client{Transport: f.cliTr}
	hosts := map[string]int{}
	for j := 0; j < p.Nodes; j++ {
		cfg := serve.NodeConfig{}
		if dir != "" {
			ds, err := serve.NewDirStore(filepath.Join(dir, fmt.Sprintf("node-%d", j)))
			if err != nil {
				f.close()
				return nil, err
			}
			st := &benchStore{s: ds, t: t, node: j}
			f.stores = append(f.stores, st)
			cfg.Store = st
		}
		n := serve.NewNode(newCoordinator(p, nodeSeed(seed, j)), cfg)
		f.nodes = append(f.nodes, n)
		u, err := f.listen(traceNode(t, j, n.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, u)
		pu, _ := url.Parse(u)
		hosts[pu.Host] = j
	}
	agg := serve.NewAggregator(aggSeed(seed), f.urls...)
	f.aggTr = &http.Transport{MaxIdleConnsPerHost: 4}
	agg.SetHTTPClient(&http.Client{Transport: &fetchTransport{t: t, base: f.aggTr, nodes: hosts}})
	u, err := f.listen(traceAggregator(t, agg.Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	f.aggURL = u
	f.agg = agg
	return f, nil
}

// listen serves h on a fresh loopback port.
func (f *fleet) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(l) // returns ErrServerClosed once close runs
	}()
	return "http://" + l.Addr().String(), nil
}

// close stops the servers (waiting for their loops), then the nodes —
// each writes its final checkpoint — and drops idle connections.
func (f *fleet) close() error {
	var errs []error
	for _, s := range f.servers {
		errs = append(errs, s.Close())
	}
	f.serving.Wait()
	for _, n := range f.nodes {
		errs = append(errs, n.Close())
	}
	if f.aggTr != nil {
		f.aggTr.CloseIdleConnections()
	}
	f.cliTr.CloseIdleConnections()
	return errors.Join(errs...)
}

// ingest posts one pre-encoded frame to node j and checks the
// acknowledgement against the harness's own count.
func (f *fleet) ingest(ctx context.Context, j int, fr frame, rid string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.urls[j]+"/ingest", bytes.NewReader(fr.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", serve.ContentTypeBinary)
	req.Header.Set(ridHeader, rid)
	var ack serve.IngestResponse
	if err := f.do(req, &ack); err != nil {
		return fmt.Errorf("ingest %s: %w", rid, err)
	}
	f.acked[j] += int64(fr.items)
	return checkAck(ack, fr.items, f.acked[j])
}

// query asks the aggregator for k draws.
func (f *fleet) query(ctx context.Context, k int, rid string) (serve.SampleResponse, error) {
	var out serve.SampleResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.aggURL+"/samplek?k="+strconv.Itoa(k), nil)
	if err != nil {
		return out, err
	}
	req.Header.Set(ridHeader, rid)
	if err := f.do(req, &out); err != nil {
		return out, fmt.Errorf("query %s: %w", rid, err)
	}
	return out, nil
}

func (f *fleet) do(req *http.Request, out any) error {
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// snapshot fetches node j's full state over HTTP.
func (f *fleet) snapshot(j int) ([]byte, error) {
	c := serve.NewClient(f.urls[j])
	c.HTTP = f.client
	data, _, err := c.Snapshot()
	return data, err
}

// totalAcked is the fleet's acknowledged mass.
func (f *fleet) totalAcked() int64 {
	var s int64
	for _, a := range f.acked {
		s += a
	}
	return s
}

// storeBytes sums the bytes every node handed its store.
func (f *fleet) storeBytes() int64 {
	var s int64
	for _, st := range f.stores {
		s += st.putBytes.Load()
	}
	return s
}
