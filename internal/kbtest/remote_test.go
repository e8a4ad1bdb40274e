package kbtest

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aida"
	"aida/internal/kb"
)

// readExpectedDoc loads the committed golden expectation of one document.
func readExpectedDoc(t testing.TB, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(ExpectedPath(name))
	if err != nil {
		t.Fatalf("missing expected output for %s: %v (run with -update)", name, err)
	}
	return want
}

// TestGoldenCorpusRemote is the cross-process conformance gate of the
// shard fleet: the full pipeline over real HTTP shard hosts must produce
// the committed golden bytes at 1, 2 and 4 remote shards — the same
// contract the in-process router is pinned to, now across process (and
// wire-protocol) boundaries.
func TestGoldenCorpusRemote(t *testing.T) {
	docs := Docs(t)
	k := GoldenKB()
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("remote-%d", shards), func(t *testing.T) {
			fleet := StartFleet(t, k, shards, 1)
			sys := NewSystem(fleet.Dial(t, kb.RemoteOptions{}))
			for _, d := range docs {
				got := AnnotateJSON(t, sys, d.Text)
				if want := readExpectedDoc(t, d.Name); !bytes.Equal(got, want) {
					t.Errorf("%s: remote output diverges from golden expectation\n got: %s",
						d.Name, firstDiff(got, want))
				}
			}
		})
	}
}

// TestGoldenCorpusRemoteParallel runs the conformance corpus through the
// concurrent corpus API against a remote fleet: document fan-out over a
// shared RemoteStore (concurrent cache fills, scatter-gather in flight on
// many goroutines) must not change a byte. Under -race this is the remote
// store's concurrency test.
func TestGoldenCorpusRemoteParallel(t *testing.T) {
	docs := Docs(t)
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
	}
	fleet := StartFleet(t, GoldenKB(), 4, 2)
	sys := NewSystem(fleet.Dial(t, kb.RemoteOptions{}))
	out, err := sys.AnnotateCorpus(context.Background(), texts, append(ConformanceOptions(), aida.WithParallelism(4))...)
	if err != nil {
		t.Fatalf("AnnotateCorpus: %v", err)
	}
	for i, d := range docs {
		got, err := MarshalDoc(out[i])
		if err != nil {
			t.Fatalf("marshal %s: %v", d.Name, err)
		}
		if want := readExpectedDoc(t, d.Name); !bytes.Equal(got, want) {
			t.Errorf("%s: parallel remote output diverges\n got: %s", d.Name, firstDiff(got, want))
		}
	}
}

// protoCounter counts responses per HTTP protocol major version.
type protoCounter struct {
	rt http.RoundTripper
	h2 atomic.Int64
	h1 atomic.Int64
}

func (p *protoCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.rt.RoundTrip(req)
	if err == nil {
		if resp.ProtoMajor == 2 {
			p.h2.Add(1)
		} else {
			p.h1.Add(1)
		}
	}
	return resp, err
}

// TestGoldenCorpusRemoteHTTP2 pins the HTTP/2 transport path: every store
// request is served over a multiplexed h2 connection, and the golden bytes
// are unchanged.
func TestGoldenCorpusRemoteHTTP2(t *testing.T) {
	docs := Docs(t)
	fleet := StartFleetHTTP2(t, GoldenKB(), 2, 1)

	base := &http.Transport{
		TLSClientConfig:   &tls.Config{InsecureSkipVerify: true},
		ForceAttemptHTTP2: true,
	}
	counter := &protoCounter{rt: base}
	sys := NewSystem(fleet.Dial(t, kb.RemoteOptions{Client: &http.Client{Transport: counter}}))
	for _, d := range docs[:4] {
		got := AnnotateJSON(t, sys, d.Text)
		if want := readExpectedDoc(t, d.Name); !bytes.Equal(got, want) {
			t.Errorf("%s: HTTP/2 remote output diverges\n got: %s", d.Name, firstDiff(got, want))
		}
	}
	if counter.h2.Load() == 0 {
		t.Fatal("no store request was served over HTTP/2")
	}
	if n := counter.h1.Load(); n != 0 {
		t.Fatalf("%d store requests fell back to HTTP/1.x", n)
	}
}

// TestRemoteFaultMasking is the failover conformance table: any single
// replica of any shard may be slow, hung, flaky or serving a stale
// fingerprint, and the fleet's golden-corpus bytes must not change —
// hedging and failover mask the fault, and the matching counters prove the
// masking machinery (not luck) did it.
func TestRemoteFaultMasking(t *testing.T) {
	docs := Docs(t)
	k := GoldenKB()
	cases := []struct {
		name   string
		faults Faults
		opts   kb.RemoteOptions
		moved  func(s kb.RemoteStats) bool
	}{
		{
			name:   "slow-primary-hedged",
			faults: Faults{Latency: 80 * time.Millisecond},
			opts:   kb.RemoteOptions{HedgeAfter: 2 * time.Millisecond},
			moved:  func(s kb.RemoteStats) bool { return s.Hedges >= 1 },
		},
		{
			name:   "hung-primary-hedged",
			faults: Faults{Hang: 5 * time.Second},
			opts:   kb.RemoteOptions{HedgeAfter: 2 * time.Millisecond},
			moved:  func(s kb.RemoteStats) bool { return s.Hedges >= 1 },
		},
		{
			name:   "flaky-primary-retries",
			faults: Faults{ErrorEvery: 2},
			moved:  func(s kb.RemoteStats) bool { return s.Retries >= 1 && s.Failovers >= 1 },
		},
		{
			name:   "dead-primary-failover",
			faults: Faults{ErrorEvery: 1},
			moved:  func(s kb.RemoteStats) bool { return s.Retries >= 1 && s.Failovers >= 1 },
		},
		{
			name:   "stale-fingerprint-primary",
			faults: Faults{StaleFingerprint: true},
			moved:  func(s kb.RemoteStats) bool { return s.Retries >= 1 && s.Failovers >= 1 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet := StartFleet(t, k, 2, 2)
			r := fleet.Dial(t, tc.opts)
			// Fault every shard's primary after a clean dial: the fleet keeps
			// serving from the replicas.
			fleet.SetAll(func(shard, rep int) bool { return rep == 0 }, tc.faults)
			sys := NewSystem(r)
			for _, d := range docs[:6] {
				got := AnnotateJSON(t, sys, d.Text)
				if want := readExpectedDoc(t, d.Name); !bytes.Equal(got, want) {
					t.Errorf("%s: output diverges under %s\n got: %s", d.Name, tc.name, firstDiff(got, want))
				}
			}
			if st := r.Stats(); !tc.moved(st) {
				t.Fatalf("fault %s was not masked by the failover machinery: stats %+v", tc.name, st)
			}
		})
	}
}

// TestFleetFaultSmoke is the CI fault-injection smoke (enable with
// AIDA_FLEET_SMOKE=1): ~10 seconds of continuous golden annotation against
// a 2×2 fleet whose replicas randomly flap between healthy, slow, flaky
// and stale states. Every produced document must still match the golden
// bytes — at most one replica per shard misbehaves at a time, which the
// fleet is contracted to mask.
func TestFleetFaultSmoke(t *testing.T) {
	if os.Getenv("AIDA_FLEET_SMOKE") == "" {
		t.Skip("set AIDA_FLEET_SMOKE=1 to run the 10s fault-injection smoke")
	}
	docs := Docs(t)
	fleet := StartFleet(t, GoldenKB(), 2, 2)
	rng := rand.New(rand.NewSource(20130610))
	menu := []Faults{
		{},
		{Latency: 30 * time.Millisecond},
		{Hang: 5 * time.Second},
		{ErrorEvery: 2},
		{ErrorEvery: 1},
		{StaleFingerprint: true},
	}

	// Each round dials a fresh store against a healthy fleet (a RemoteStore
	// caches forever, so a long-lived one would stop exercising the wire
	// after warmup), then arms a random fault on one random replica index
	// and annotates: every round hits the network under a live fault.
	deadline := time.Now().Add(10 * time.Second)
	rounds := 0
	var total kb.RemoteStats
	for time.Now().Before(deadline) {
		fleet.ClearFaults()
		r := fleet.Dial(t, kb.RemoteOptions{HedgeAfter: 5 * time.Millisecond})
		sys := NewSystem(r)
		rep := rng.Intn(2)
		f := menu[rng.Intn(len(menu))]
		fleet.SetAll(func(_, replica int) bool { return replica == rep }, f)
		for i := 0; i < 2; i++ {
			d := docs[rng.Intn(len(docs))]
			got := AnnotateJSON(t, sys, d.Text)
			if want := readExpectedDoc(t, d.Name); !bytes.Equal(got, want) {
				t.Fatalf("round %d: %s diverged under fault %+v on replica %d\n got: %s",
					rounds, d.Name, f, rep, firstDiff(got, want))
			}
		}
		st := r.Stats()
		total.Requests += st.Requests
		total.Hedges += st.Hedges
		total.Retries += st.Retries
		total.Failovers += st.Failovers
		rounds++
	}
	t.Logf("smoke: %d rounds, cumulative stats %+v", rounds, total)
	if rounds == 0 {
		t.Fatal("smoke made no progress")
	}
	if total.Hedges == 0 || total.Retries == 0 || total.Failovers == 0 {
		t.Fatalf("smoke never exercised the masking machinery: %+v", total)
	}
}

// TestRemoteOversizeBody pins the router's bound on response bodies: a
// replica that answers 200 with a body past 64 MiB is a failed attempt, so
// failover to a healthy replica keeps the golden bytes, and with no
// healthy replica each document fails with a *kb.RemoteError instead of
// decoding a truncated body.
func TestRemoteOversizeBody(t *testing.T) {
	docs := Docs(t)[:2]
	k := GoldenKB()
	host, err := kb.NewStoreHost(k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := host.Handler()
	// oversize serves the dial handshake honestly, then answers every
	// request with a 65 MiB body once armed.
	oversize := func(armed *atomic.Bool) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !armed.Load() {
				h.ServeHTTP(w, r)
				return
			}
			w.Header().Set(kb.FingerprintHeader, strconv.FormatUint(k.Fingerprint(), 16))
			chunk := make([]byte, 1<<20)
			for i := 0; i < 65; i++ {
				if _, err := w.Write(chunk); err != nil {
					return // the router hung up past its limit
				}
			}
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	dial := func(m kb.ShardMap) *kb.RemoteStore {
		r, err := kb.DialFleet(context.Background(), m, kb.RemoteOptions{HedgeAfter: -1, RetryBackoff: -1})
		if err != nil {
			t.Fatalf("DialFleet: %v", err)
		}
		return r
	}

	t.Run("failover", func(t *testing.T) {
		healthy := httptest.NewServer(h)
		t.Cleanup(healthy.Close)
		var armed atomic.Bool
		r := dial(kb.ShardMap{Shards: []kb.ShardEndpoints{{Primary: oversize(&armed), Replicas: []string{healthy.URL}}}})
		armed.Store(true)
		sys := NewSystem(r)
		for _, d := range docs {
			got := AnnotateJSON(t, sys, d.Text)
			if want := readExpectedDoc(t, d.Name); !bytes.Equal(got, want) {
				t.Errorf("%s: output diverges after oversize-body failover\n got: %s", d.Name, firstDiff(got, want))
			}
		}
		if st := r.Stats(); st.Retries < 1 || st.Failovers < 1 {
			t.Fatalf("oversize bodies were not failed over: %+v", st)
		}
	})

	t.Run("no-healthy-replica", func(t *testing.T) {
		var armed atomic.Bool
		r := dial(kb.ShardMap{Shards: []kb.ShardEndpoints{{Primary: oversize(&armed), Replicas: []string{oversize(&armed)}}}})
		armed.Store(true)
		sys := NewSystem(r)
		for _, d := range docs {
			doc, err := sys.AnnotateDoc(context.Background(), d.Text, ConformanceOptions()...)
			var re *kb.RemoteError
			if doc != nil || !errors.As(err, &re) {
				t.Fatalf("%s: AnnotateDoc = (%v, %v), want a *kb.RemoteError", d.Name, doc, err)
			}
			if !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("%s: RemoteError %q does not name the body limit", d.Name, err)
			}
		}
	})
}
