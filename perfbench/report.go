package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the database sees; every untraced run
// prints all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tps", "1/s"},
	{"txn_p50_us", "us"},
	{"txn_p99_us", "us"},
	{"heap_live_mb", "MB"},
	{"migrate_ms", "ms"},
	{"recover_s", "s"},
}

// perLayer are the single-layer metrics of the traced run; every traced run
// prints all of them, 0 where the workload gives a layer no work.
var perLayer = []metricDef{
	{"cluster.begin_us", "us"},
	{"cluster.get_us", "us"},
	{"cluster.update_us", "us"},
	{"cluster.commit_us", "us"},
	{"cluster.participants_per_txn", "nodes/txn"},
	{"txn.commit_latency_us", "us"},
	{"txn.epoch_txns", "txns/epoch"},
	{"txn.epoch_seal_delay_us", "us"},
	{"txn.aborts", "count"},
	{"txn.ww_conflicts", "count"},
	{"clog.lockfree_resolve_frac", "ratio"},
	{"mvcc.lock_stripe_collisions_per_txn", "count/txn"},
	{"mvcc.version_array_swaps_per_txn", "count/txn"},
	{"mvcc.vacuum_ms", "ms"},
	{"mvcc.versions_reclaimed", "count"},
	{"wal.syncs_per_txn", "syncs/txn"},
	{"wal.bytes_per_txn", "B/txn"},
	{"storage.checkpoint_ms", "ms"},
	{"storage.recover_us_per_txn", "us/txn"},
	{"storage.stale_readbacks", "reads/round"},
	{"repl.snapshot_ms", "ms"},
	{"repl.catchup_ms", "ms"},
	{"repl.copy_bytes_per_tuple", "B/tuple"},
	{"repl.shipped_txns_per_migration", "txns/migration"},
	{"repl.shipped_records_per_migration", "rec/migration"},
	{"repl.ship_group_txns", "txns/group"},
	{"repl.catchup_lag_records_p99", "records"},
	{"core.mode_change_ms", "ms"},
	{"core.diversion_ms", "ms"},
	{"core.dual_ms", "ms"},
	{"core.validations_per_migration", "txns/migration"},
	{"core.conflicts_per_migration", "txns/migration"},
	{"core.unsync_txns_per_migration", "txns/migration"},
	{"core.drained_txns_per_migration", "txns/migration"},
	{"core.validation_wait_us_p99", "us"},
	{"core.block_wait_us_p99", "us"},
	{"node.foreground_ops_per_txn", "ops/txn"},
	{"node.snapshot_ops_per_tuple", "ops/tuple"},
	{"node.replay_ops_per_migration", "ops/migration"},
	{"node.propagation_ops_per_migration", "ops/migration"},
	{"simnet.msgs_per_txn", "msgs/txn"},
	{"simnet.bytes_per_migrated_tuple", "B/tuple"},
	{"go.mallocs_per_txn", "mallocs/txn"},
	{"go.gc_pause_ms", "ms"},
	{"bench.txn_residual_pct", "%"},
	{"bench.migrate_residual_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// report is what a workload hands back: operation counts, check failures and
// its figures.
type report struct {
	attempted, failed int64
	errors            []error
	e2e               map[string]float64
	layer             map[string]float64
	spans             *spanLog
}

func newReport() *report {
	return &report{
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
		spans: newSpanLog(),
	}
}

// fail records a failed output check.
func (r *report) fail(err error) {
	if err != nil {
		r.errors = append(r.errors, err)
	}
}

// metrics returns the result's metric set: every end-to-end metric, or with
// trace every per-layer one. An end-to-end metric the workload did not
// measure is a failed check, not a silent 0.
func (r *report) metrics(trace bool) map[string]metric {
	out := make(map[string]metric)
	if trace {
		for _, d := range perLayer {
			out[d.name] = metric{Value: r.layer[d.name], Unit: d.unit}
		}
		return out
	}
	for _, d := range endToEnd {
		v, ok := r.e2e[d.name]
		if !ok || v <= 0 {
			r.fail(fmt.Errorf("end-to-end metric %s not measured", d.name))
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures.

// quantile is the q-quantile of xs (sorted in place) by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ---------------------------------------------------------------------------
// Spans. The benchmark records spans around its calls into the program:
// name, start, end, and the span that caused it. They stay in memory and are
// written as JSON lines when the run ends.

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the span buffer; spans past it are counted, not kept.
const maxSpans = 1 << 17

type spanLog struct {
	epoch time.Time

	mu      sync.Mutex
	next    uint64
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (l *spanLog) id() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a span with a reserved id (0 reserves one) and returns the id.
func (l *spanLog) add(id, parent uint64, name string, start, end time.Time) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id == 0 {
		l.next++
		id = l.next
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return id
	}
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
	return id
}

// writeFile writes the spans as JSON lines under dir and returns the path.
func (l *spanLog) writeFile(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	dropped := l.dropped
	l.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
