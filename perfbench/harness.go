package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/core"
	"remus/internal/mvcc"
	"remus/internal/obs"
	"remus/internal/shard"
)

// sliceLen is the length of the slices a window is cut into: the foreground
// figures are medians over slices, and a traced run alternates untraced and
// traced ones, whose throughput gap is the tracing overhead.
const sliceLen = time.Second

// tracer switches recording on and off during a traced run: the
// benchmark's own spans and the obs.Trace installed on the cluster's nodes
// and interconnect. In an untraced run it stays off and rec is nil.
type tracer struct {
	rec   *obs.Trace
	spans *spanLog
	on    atomic.Bool

	// slice counts the window's whole slices so far; slices holds their
	// measured lengths.
	slice  atomic.Int32
	slices []time.Duration

	// time spent in each state while a window ran
	onTime, offTime time.Duration
}

func newTracer(trace bool, spans *spanLog) *tracer {
	t := &tracer{spans: spans}
	if trace {
		// Counters and histograms only: the benchmark keeps its own spans.
		t.rec = obs.NewTraceSized(0)
	}
	return t
}

// recorder is what cluster.Config.Recorder and core.Options.Recorder get:
// nil in an untraced run.
func (t *tracer) recorder() obs.Recorder {
	if t.rec == nil {
		return nil
	}
	return t.rec
}

// set turns recording on or off on a live cluster.
func (t *tracer) set(c *cluster.Cluster, on bool) {
	if t.rec == nil {
		return
	}
	t.on.Store(on)
	var r obs.Recorder
	if on {
		r = t.rec
	}
	for _, n := range c.Nodes() {
		n.SetRecorder(r)
	}
	c.Net().SetRecorder(r)
}

// window runs body on n client goroutines for d while the calling goroutine
// acts as the operator: in a traced run it alternates untraced and traced
// slices, and it calls tick (if non-nil) every few milliseconds. It returns
// the measured length of the window.
func (t *tracer) window(c *cluster.Cluster, d time.Duration, n int, body func(i int, stop *atomic.Bool), tick func()) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	sliceStart := start
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, &stop)
		}(i)
	}
	for {
		now := time.Now()
		if now.Sub(sliceStart) >= sliceLen {
			t.slices = append(t.slices, now.Sub(sliceStart))
			if t.rec != nil {
				t.account(now.Sub(sliceStart))
				t.set(c, !t.on.Load())
			}
			t.slice.Add(1)
			sliceStart = now
		}
		if !now.Before(deadline) {
			break
		}
		if tick != nil {
			tick()
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	end := time.Now()
	if t.rec != nil {
		t.account(end.Sub(sliceStart))
		t.set(c, false)
	}
	return end.Sub(start)
}

func (t *tracer) account(d time.Duration) {
	if t.on.Load() {
		t.onTime += d
	} else {
		t.offTime += d
	}
}

// ---------------------------------------------------------------------------
// Foreground clients.

// fgStats is one client's tally of foreground transactions.
type fgStats struct {
	attempted, failed int64
	errs              []error // first few failures, for diagnostics
	lat               []float64
	// sliceEnd[i] is len(lat) when the window's slice i ended, as far as
	// this client's commits have seen; slice is len(sliceEnd).
	sliceEnd []int
	slice    int32

	// committed transactions in the window, split by tracing state
	onCommits, offCommits int64

	// sums over the traced transactions (spans around each public call)
	traced                   int64
	txnNs, beginNs, commitNs int64
	getNs, updNs             int64
	gets, upds               int64
	parts                    int64
}

func (s *fgStats) fail(err error) {
	s.failed++
	if len(s.errs) < 3 {
		s.errs = append(s.errs, err)
	}
}

// merge folds other's counts and sums into s; latencies stay per client
// (fillLatency reads them there).
func (s *fgStats) merge(o *fgStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.onCommits += o.onCommits
	s.offCommits += o.offCommits
	s.traced += o.traced
	s.txnNs += o.txnNs
	s.beginNs += o.beginNs
	s.commitNs += o.commitNs
	s.getNs += o.getNs
	s.updNs += o.updNs
	s.gets += o.gets
	s.upds += o.upds
	s.parts += o.parts
}

// commits is the number of transactions committed in the window.
func (s *fgStats) commits() int64 { return s.onCommits + s.offCommits }

// txnTimer times one transaction and the public calls inside it. Untraced it
// reads the clock twice per transaction; traced it reads it around every
// call and keeps one transaction in sampleEvery as spans.
type txnTimer struct {
	st      *fgStats
	tr      *tracer
	record  bool
	traced  bool
	sample  bool
	start   time.Time
	last    time.Time
	pending []span
}

// sampleEvery is how many traced transactions share one sampled span set.
const sampleEvery = 64

func (tm *txnTimer) begin(st *fgStats, tr *tracer, record bool) {
	tm.st, tm.tr, tm.record = st, tr, record
	tm.traced = record && tr.on.Load()
	tm.sample = tm.traced && st.traced%sampleEvery == 0
	tm.pending = tm.pending[:0]
	tm.start = time.Now()
	tm.last = tm.start
	st.attempted++
}

// mark closes the call that started at the previous mark and returns its
// length (0 untraced).
func (tm *txnTimer) mark(name string) int64 {
	if !tm.traced {
		return 0
	}
	now := time.Now()
	d := int64(now.Sub(tm.last))
	if tm.sample {
		tm.pending = append(tm.pending, span{Name: name, Start: int64(tm.last.Sub(tm.tr.spans.epoch)), End: int64(now.Sub(tm.tr.spans.epoch))})
	}
	tm.last = now
	return d
}

// committed closes a committed transaction.
func (tm *txnTimer) committed(parts int) {
	if !tm.record {
		return
	}
	end := time.Now()
	st := tm.st
	for s := tm.tr.slice.Load(); st.slice < s; st.slice++ {
		st.sliceEnd = append(st.sliceEnd, len(st.lat))
	}
	st.lat = append(st.lat, us(end.Sub(tm.start)))
	if !tm.traced {
		st.offCommits++
		return
	}
	st.onCommits++
	st.traced++
	st.txnNs += int64(end.Sub(tm.start))
	st.parts += int64(parts)
	if tm.sample {
		sp := tm.tr.spans
		id := sp.id()
		for _, c := range tm.pending {
			sp.add(0, id, c.Name, sp.epoch.Add(time.Duration(c.Start)), sp.epoch.Add(time.Duration(c.End)))
		}
		sp.add(id, 0, "txn", tm.start, end)
	}
}

// kvClient runs the YCSB mix of §4.3 over the rows its model owns: each
// transaction is BEGIN; one read or one update; COMMIT.
type kvClient struct {
	sess *cluster.Session
	tbl  *shard.Table
	m    *model
	// upd, if set, lists the only rows an update may pick; reads pick from
	// every row the model owns.
	upd []uint64
	rng *rand.Rand
	st  fgStats
	tm  txnTimer
	tr  *tracer
	// bad is the first read whose value the model did not expect.
	bad error
}

// op runs one transaction; record puts it into the window's figures.
func (c *kvClient) op(record bool) {
	read := c.rng.Intn(2) == 0
	var k uint64
	if read || c.upd == nil {
		k = c.m.row(c.rng.Intn(c.m.rows()))
	} else {
		k = c.upd[c.rng.Intn(len(c.upd))]
	}
	tm := &c.tm
	tm.begin(&c.st, c.tr, record)
	tx, err := c.sess.Begin()
	if err != nil {
		c.st.fail(fmt.Errorf("begin: %w", err))
		return
	}
	c.st.beginNs += tm.mark("begin")
	var v base.Value
	if read {
		v, err = tx.Get(c.tbl, keyOf(k))
		d := tm.mark("get")
		c.st.getNs += d
		if tm.traced {
			c.st.gets++
		}
	} else {
		err = tx.Update(c.tbl, keyOf(k), c.m.next(k, 0))
		d := tm.mark("update")
		c.st.updNs += d
		if tm.traced {
			c.st.upds++
		}
	}
	if err != nil {
		tx.Abort()
		c.st.fail(err)
		return
	}
	parts := tx.Participants()
	_, err = tx.Commit()
	c.st.commitNs += tm.mark("commit")
	if err != nil {
		if !read {
			c.m.failed(k, 0)
		}
		c.st.fail(fmt.Errorf("commit: %w", err))
		return
	}
	if read {
		if cerr := c.m.check(k, v); cerr != nil && c.bad == nil {
			c.bad = cerr
		}
	} else {
		c.m.acked(k, 0)
	}
	tm.committed(parts)
}

// loadRows inserts rows [0, n) with their sequence-0 values through one
// session, batch by batch (the COPY path).
func loadRows(c *cluster.Cluster, tbl *shard.Table, n, valueSize int, bal uint64) error {
	s, err := c.Connect(c.Nodes()[0].ID())
	if err != nil {
		return err
	}
	const batch = 2048
	rows := make([]cluster.KV, 0, batch)
	for lo := 0; lo < n; lo += batch {
		rows = rows[:0]
		for k := lo; k < lo+batch && k < n; k++ {
			rows = append(rows, cluster.KV{Key: keyOf(uint64(k)), Value: encodeValue(uint64(k), 0, bal, valueSize)})
		}
		tx, err := s.Begin()
		if err != nil {
			return err
		}
		if err := tx.BatchInsert(tbl, rows); err != nil {
			tx.Abort()
			return fmt.Errorf("load: %w", err)
		}
		if _, err := tx.Commit(); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

// rowsWhere lists the rows among [0, n) whose shard index satisfies keep.
func rowsWhere(tbl *shard.Table, n int, keep func(idx int) bool) []uint64 {
	var out []uint64
	for k := uint64(0); k < uint64(n); k++ {
		if keep(tbl.ShardIndex(keyOf(k))) {
			out = append(out, k)
		}
	}
	return out
}

// scanTable reads the whole table under one snapshot.
func scanTable(c *cluster.Cluster, tbl *shard.Table) (map[uint64]base.Value, error) {
	s, err := c.Connect(c.Nodes()[0].ID())
	if err != nil {
		return nil, err
	}
	tx, err := s.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	rows := make(map[uint64]base.Value)
	var bad error
	err = tx.ScanTable(tbl, func(k base.Key, v base.Value) bool {
		id, derr := base.DecodeUint64Key(k)
		if derr != nil {
			bad = derr
			return false
		}
		rows[id] = append(base.Value(nil), v...)
		return true
	})
	if err == nil {
		err = bad
	}
	return rows, err
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ---------------------------------------------------------------------------
// Public counters, read before and after a window.

type storeCounts struct{ resolves, lockFree, collisions, swaps uint64 }

type counters struct {
	fgOps, replayOps, propOps, snapOps uint64
	walSyncs, walBytes                 uint64
	netMsgs, netBytes                  uint64
	mallocs, pauseNs                   uint64
	// stores holds each live store's counts in a reading; store is the
	// sum over stores in a delta.
	stores map[*mvcc.Store]storeCounts
	store  storeCounts
}

func (a storeCounts) plus(b storeCounts) storeCounts {
	return storeCounts{a.resolves + b.resolves, a.lockFree + b.lockFree, a.collisions + b.collisions, a.swaps + b.swaps}
}

func readCounters(c *cluster.Cluster) counters {
	out := counters{stores: make(map[*mvcc.Store]storeCounts)}
	for _, n := range c.Nodes() {
		out.fgOps += n.Counters.ForegroundOps.Load()
		out.replayOps += n.Counters.ReplayOps.Load()
		out.propOps += n.Counters.PropagationOps.Load()
		out.snapOps += n.Counters.SnapshotOps.Load()
		out.walSyncs += n.WAL().Syncs()
		out.walBytes += n.WAL().Bytes()
		stores := []*mvcc.Store{n.MapStore()}
		for _, id := range n.Shards() {
			if s, ok := n.Store(id); ok {
				stores = append(stores, s)
			}
		}
		for _, s := range stores {
			out.stores[s] = storeCounts{s.Resolves(), s.LockFreeResolves(), s.LockStripeCollisions(), s.VersionArraySwaps()}
		}
	}
	out.netMsgs = c.Net().Messages()
	out.netBytes = c.Net().Bytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.mallocs = ms.Mallocs
	out.pauseNs = ms.PauseTotalNs
	return out
}

// sub returns the counts accumulated from before to c. A store created in
// between counts whole; a store dropped in between (a migration retired
// it) loses what it counted since before.
func (c counters) sub(before counters) counters {
	d := counters{
		fgOps:     c.fgOps - before.fgOps,
		replayOps: c.replayOps - before.replayOps,
		propOps:   c.propOps - before.propOps,
		snapOps:   c.snapOps - before.snapOps,
		walSyncs:  c.walSyncs - before.walSyncs,
		walBytes:  c.walBytes - before.walBytes,
		netMsgs:   c.netMsgs - before.netMsgs,
		netBytes:  c.netBytes - before.netBytes,
		mallocs:   c.mallocs - before.mallocs,
		pauseNs:   c.pauseNs - before.pauseNs,
	}
	for s, now := range c.stores {
		was := before.stores[s]
		d.store = d.store.plus(storeCounts{now.resolves - was.resolves, now.lockFree - was.lockFree, now.collisions - was.collisions, now.swaps - was.swaps})
	}
	return d
}

// add folds another delta (from sub) into d.
func (d *counters) add(o counters) {
	d.fgOps += o.fgOps
	d.replayOps += o.replayOps
	d.propOps += o.propOps
	d.snapOps += o.snapOps
	d.walSyncs += o.walSyncs
	d.walBytes += o.walBytes
	d.netMsgs += o.netMsgs
	d.netBytes += o.netBytes
	d.mallocs += o.mallocs
	d.pauseNs += o.pauseNs
	d.store = d.store.plus(o.store)
}

// ---------------------------------------------------------------------------
// Operator actions: migrations, vacuum, checkpoints.

// migTally sums the reports of a workload's migrations.
type migTally struct {
	copies                                         map[string]int // initial-copy mode -> migrations
	wall                                           []float64      // ms per Controller.Migrate call
	snapshot, catchup, modeChange, diversion, dual time.Duration
	spanNs, phaseNs                                int64
	tuples, copyBytes                              int64
	shipTxns, shipRecs                             uint64
	validations, conflicts                         uint64
	unsync, drained                                int64
	netBytes                                       uint64
}

// controllers holds one migration controller per tracing state, since
// core.Options.Recorder is fixed when a controller is made.
type controllers struct{ plain, traced *core.Controller }

func newControllers(c *cluster.Cluster, tr *tracer, spillDir string) controllers {
	opts := core.DefaultOptions()
	opts.SpillDir = spillDir
	out := controllers{plain: core.NewController(c, opts)}
	if tr.rec != nil {
		opts.Recorder = tr.rec
		out.traced = core.NewController(c, opts)
	}
	return out
}

// migrate moves the shard group to dst, records its figures and spans, and
// checks that afterwards each shard has exactly one owner, dst.
func (t *migTally) migrate(c *cluster.Cluster, ct controllers, tr *tracer, group []base.ShardID, dst base.NodeID) error {
	ctl := ct.plain
	traced := tr.on.Load() && ct.traced != nil
	if traced {
		ctl = ct.traced
	}
	netBefore := c.Net().Bytes()
	start := time.Now()
	rep, err := ctl.Migrate(group, dst)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("migrate %v to %v: %w", group, dst, err)
	}
	t.netBytes += c.Net().Bytes() - netBefore
	t.wall = append(t.wall, ms(end.Sub(start)))
	if t.copies == nil {
		t.copies = make(map[string]int)
	}
	t.copies[rep.InitialCopy]++
	t.snapshot += rep.SnapshotDuration
	t.catchup += rep.CatchupDuration
	t.modeChange += rep.ModeChangeDuration
	t.diversion += rep.DiversionDuration
	t.dual += rep.DualDuration
	t.tuples += int64(rep.Snapshot.Tuples)
	t.copyBytes += int64(rep.Snapshot.Bytes)
	t.shipTxns += rep.ShippedTxns
	t.shipRecs += rep.ShippedRecords
	t.validations += rep.Validations
	t.conflicts += rep.Conflicts
	t.unsync += int64(rep.UnsyncTxns)
	t.drained += int64(rep.DrainedTxns)
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"snapshot-copy", rep.SnapshotDuration},
		{"catch-up", rep.CatchupDuration},
		{"mode-change", rep.ModeChangeDuration},
		{"ordered-diversion", rep.DiversionDuration},
		{"dual-execution", rep.DualDuration},
	}
	var phaseSum time.Duration
	for _, p := range phases {
		phaseSum += p.d
	}
	t.spanNs += int64(end.Sub(start))
	t.phaseNs += int64(phaseSum)
	if tr.rec != nil {
		// The report gives phase lengths, not stamps: lay the phases end to
		// end from the start of Run (the call minus what Run did not time).
		sp := tr.spans
		id := sp.id()
		at := end.Add(-rep.TotalDuration)
		for _, p := range phases {
			sp.add(0, id, p.name, at, at.Add(p.d))
			at = at.Add(p.d)
		}
		sp.add(id, 0, "migrate", start, end)
	}
	return checkOwners(c, group, dst)
}

// checkOwners verifies that each shard of the group has exactly one owner
// and that it is dst: every node's shard map names dst and only dst holds
// the shard's data.
func checkOwners(c *cluster.Cluster, group []base.ShardID, dst base.NodeID) error {
	for _, id := range group {
		owner, err := c.OwnerOf(id)
		if err != nil {
			return fmt.Errorf("owner of %v: %w", id, err)
		}
		if owner != dst {
			return fmt.Errorf("owner of %v is %v after migrating to %v", id, owner, dst)
		}
		holders := 0
		for _, n := range c.Nodes() {
			d, _, err := n.ReadMapRow(base.TsMax, id)
			if err != nil {
				return fmt.Errorf("map row of %v on %v: %w", id, n.ID(), err)
			}
			if d.Node != dst {
				return fmt.Errorf("%v maps %v to %v after migrating to %v", n.ID(), id, d.Node, dst)
			}
			if _, ok := n.Store(id); ok {
				holders++
				if n.ID() != dst {
					return fmt.Errorf("%v still holds %v after migrating to %v", n.ID(), id, dst)
				}
			}
		}
		if holders != 1 {
			return fmt.Errorf("%v is held by %d nodes after migrating to %v", id, holders, dst)
		}
	}
	return nil
}

// opTally times an operator call (vacuum, checkpoint, restart).
type opTally struct {
	n       int
	total   time.Duration
	counted int64
}

func (t *opTally) time(tr *tracer, name string, fn func() int) {
	start := time.Now()
	k := fn()
	end := time.Now()
	t.n++
	t.total += end.Sub(start)
	t.counted += int64(k)
	if tr.rec != nil {
		tr.spans.add(0, 0, name, start, end)
	}
}

func (t *opTally) meanMs() float64 { return ratio(ms(t.total), float64(t.n)) }

// ---------------------------------------------------------------------------
// Per-layer figures.

// layerInputs is everything the per-layer figures are computed from.
type layerInputs struct {
	fg      *fgStats
	delta   counters // public counters over the measured windows
	commits float64  // foreground commits the counters are divided by
	trace   *obs.Trace
	tr      *tracer
	mig     *migTally
	vacuum  *opTally
}

// fillLayers computes every per-layer metric into r.layer.
func fillLayers(r *report, in layerInputs) {
	L := r.layer
	fg := in.fg
	n := float64(fg.traced)
	L["cluster.begin_us"] = ratio(float64(fg.beginNs)/1e3, n)
	L["cluster.get_us"] = ratio(float64(fg.getNs)/1e3, float64(fg.gets))
	L["cluster.update_us"] = ratio(float64(fg.updNs)/1e3, float64(fg.upds))
	L["cluster.commit_us"] = ratio(float64(fg.commitNs)/1e3, n)
	L["cluster.participants_per_txn"] = ratio(float64(fg.parts), n)
	if fg.txnNs > 0 {
		covered := fg.beginNs + fg.getNs + fg.updNs + fg.commitNs
		L["bench.txn_residual_pct"] = 100 * float64(fg.txnNs-covered) / float64(fg.txnNs)
	}
	if in.tr.onTime > 0 && in.tr.offTime > 0 && fg.offCommits > 0 {
		on := float64(fg.onCommits) / in.tr.onTime.Seconds()
		off := float64(fg.offCommits) / in.tr.offTime.Seconds()
		L["bench.trace_overhead_pct"] = 100 * (1 - on/off)
	}

	if t := in.trace; t != nil {
		L["txn.commit_latency_us"] = t.Histogram(obs.HistCommitLatency).Mean() / 1e3
		L["txn.aborts"] = float64(t.Counter(obs.CtrAborts))
		L["txn.ww_conflicts"] = float64(t.Counter(obs.CtrWWConflicts))
		L["repl.ship_group_txns"] = t.Histogram(obs.HistShipGroupTxns).Mean()
		L["repl.catchup_lag_records_p99"] = float64(t.Histogram(obs.HistCatchupLag).Quantile(0.99))
		L["core.validation_wait_us_p99"] = float64(t.Histogram(obs.HistValidationWait).Quantile(0.99)) / 1e3
		L["core.block_wait_us_p99"] = float64(t.Histogram(obs.HistBlockWait).Quantile(0.99)) / 1e3
	}

	d := in.delta
	s := d.store
	L["clog.lockfree_resolve_frac"] = ratio(float64(s.lockFree), float64(s.resolves))
	L["mvcc.lock_stripe_collisions_per_txn"] = ratio(float64(s.collisions), in.commits)
	L["mvcc.version_array_swaps_per_txn"] = ratio(float64(s.swaps), in.commits)
	L["wal.syncs_per_txn"] = ratio(float64(d.walSyncs), in.commits)
	L["wal.bytes_per_txn"] = ratio(float64(d.walBytes), in.commits)
	L["node.foreground_ops_per_txn"] = ratio(float64(d.fgOps), in.commits)
	L["simnet.msgs_per_txn"] = ratio(float64(d.netMsgs), in.commits)
	L["go.mallocs_per_txn"] = ratio(float64(d.mallocs), in.commits)
	L["go.gc_pause_ms"] = float64(d.pauseNs) / 1e6

	if v := in.vacuum; v != nil {
		L["mvcc.vacuum_ms"] = v.meanMs()
		L["mvcc.versions_reclaimed"] = float64(v.counted)
	}

	if m := in.mig; m != nil && len(m.wall) > 0 {
		k := float64(len(m.wall))
		L["repl.snapshot_ms"] = ms(m.snapshot) / k
		L["repl.catchup_ms"] = ms(m.catchup) / k
		L["repl.copy_bytes_per_tuple"] = ratio(float64(m.copyBytes), float64(m.tuples))
		L["repl.shipped_txns_per_migration"] = float64(m.shipTxns) / k
		L["repl.shipped_records_per_migration"] = float64(m.shipRecs) / k
		L["core.mode_change_ms"] = ms(m.modeChange) / k
		L["core.diversion_ms"] = ms(m.diversion) / k
		L["core.dual_ms"] = ms(m.dual) / k
		L["core.validations_per_migration"] = float64(m.validations) / k
		L["core.conflicts_per_migration"] = float64(m.conflicts) / k
		L["core.unsync_txns_per_migration"] = float64(m.unsync) / k
		L["core.drained_txns_per_migration"] = float64(m.drained) / k
		L["node.snapshot_ops_per_tuple"] = ratio(float64(d.snapOps), float64(m.tuples))
		L["node.replay_ops_per_migration"] = float64(d.replayOps) / k
		L["node.propagation_ops_per_migration"] = float64(d.propOps) / k
		L["simnet.bytes_per_migrated_tuple"] = ratio(float64(m.netBytes), float64(m.tuples))
		if m.spanNs > 0 {
			L["bench.migrate_residual_pct"] = 100 * float64(m.spanNs-m.phaseNs) / float64(m.spanNs)
		}
	}
}

// fillLatency sets the end-to-end throughput and latency figures of the
// clients' window: the medians over the window's whole slices of each
// slice's commit rate and latency percentiles, so that a second or two in
// which the host or a GC cycle slowed the clients does not move a run's
// figures. A window shorter than one slice is taken whole.
func fillLatency(r *report, clients []*fgStats, tr *tracer, seconds float64) {
	// end is where client st's slice i ends in st.lat: slices its commits
	// never crossed into end with its last commit.
	end := func(st *fgStats, i int) int {
		if i < len(st.sliceEnd) {
			return st.sliceEnd[i]
		}
		return len(st.lat)
	}
	var tps, p50, p99 []float64
	for i, d := range tr.slices {
		var lat []float64
		for _, st := range clients {
			lo := 0
			if i > 0 {
				lo = end(st, i-1)
			}
			lat = append(lat, st.lat[lo:end(st, i)]...)
		}
		tps = append(tps, ratio(float64(len(lat)), d.Seconds()))
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
	}
	if len(tr.slices) == 0 {
		var lat []float64
		for _, st := range clients {
			lat = append(lat, st.lat...)
		}
		tps = []float64{ratio(float64(len(lat)), seconds)}
		p50 = []float64{quantile(lat, 0.50)}
		p99 = []float64{quantile(lat, 0.99)}
	}
	r.e2e["tps"] = median(tps)
	r.e2e["txn_p50_us"] = median(p50)
	r.e2e["txn_p99_us"] = median(p99)
}
