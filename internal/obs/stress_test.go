package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// The TestStress* tests are the observability gate's race-detector
// workload (scripts/check.sh runs them under -race): concurrent writers
// on the lock-free record paths while readers snapshot and scrape over
// HTTP, exactly the production interleaving of a busy engine plus a
// Prometheus scraper.

// httpGet fetches a URL and returns the body, failing on any non-200.
func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body), nil
}

func TestStressHistogramExemplarConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("stress_seconds", LatencyBuckets())
	srv := httptest.NewServer(NewHandler(AdminOptions{Registry: reg}))
	defer srv.Close()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				h.ObserveWithExemplar(float64(i%100)/1000, uint64(g*2000+i+1))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if s.MaxExemplar != nil && s.MaxExemplar.TraceID == 0 {
					t.Error("torn exemplar read")
					return
				}
				if _, err := httpGet(srv.URL + "/metrics"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("lost observations: count = %d, want 8000", s.Count)
	}
	if s.MaxExemplar == nil {
		t.Fatal("no max exemplar after 8000 exemplared observations")
	}
}

func TestStressTracerRingConcurrentDump(t *testing.T) {
	tz := NewTracerTailSampled(128, TailSamplingPolicy{
		SlowThreshold: time.Millisecond,
		KeepOneInN:    4,
	})
	srv := httptest.NewServer(NewHandler(AdminOptions{Tracer: tz}))
	defer srv.Close()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	outcomes := []string{"", "ok", "deadline", "error"}
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				tr := tz.Start("stress")
				tr.StartSpan("phase").Finish()
				tr.SetOutcome(outcomes[(g+i)%len(outcomes)])
				tz.Finish(tr)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tz.Recent()
				tz.Retention()
				for _, q := range []string{"", "?outcome=error", "?limit=5"} {
					if _, err := httpGet(srv.URL + "/debug/traces" + q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if tz.Finished() != 8000 {
		t.Fatalf("Finished() = %d, want 8000", tz.Finished())
	}
	var kept, dropped uint64
	for _, r := range tz.Retention() {
		kept += r.Kept
		dropped += r.Dropped
	}
	if kept+dropped != 8000 {
		t.Fatalf("retention accounts for %d of 8000", kept+dropped)
	}
}

func TestStressLoggerRingConcurrentReaders(t *testing.T) {
	l := NewLogger(LoggerOptions{SampleN: 8})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				outcome := "ok"
				if i%7 == 0 {
					outcome = "error"
				}
				l.Log(Event{Outcome: outcome, LatencyNS: int64(i), TraceID: uint64(g*2000 + i + 1)})
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range l.Ring().Recent() {
				if e.Outcome == "" {
					t.Error("torn event read")
					return
				}
			}
			l.Stats()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
}
