package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/shard"
)

// smallTable loads a small in-memory table and returns a client that owns
// every row, after it ran some of the ycsb mix.
func smallTable(t *testing.T) (*cluster.Cluster, *shard.Table, *kvClient) {
	t.Helper()
	const rows = 500
	c := cluster.New(cluster.Config{Nodes: 2})
	tbl, err := c.CreateTable("t", 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadRows(c, tbl, rows, ycsbValue, 0); err != nil {
		t.Fatal(err)
	}
	s, err := c.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	cl := &kvClient{
		sess: s, tbl: tbl, tr: newTracer(false, newSpanLog()),
		m:   newModel(ycsbValue, 0, 1, rows, 0),
		rng: rand.New(rand.NewSource(7)),
	}
	for i := 0; i < 2000; i++ {
		cl.op(true)
	}
	if cl.bad != nil || cl.st.failed != 0 {
		t.Fatalf("clean run: bad read %v, %d failed", cl.bad, cl.st.failed)
	}
	got, err := scanTable(c, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScan(got, cl.m); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return c, tbl, cl
}

// writtenRow returns a row the client has updated at least once.
func writtenRow(t *testing.T, m *model) uint64 {
	t.Helper()
	for i := 0; i < m.rows(); i++ {
		if m.seq[i] > 0 {
			return m.row(i)
		}
	}
	t.Fatal("no row was written")
	return 0
}

// TestCheckCatchesWrongModelValue plants a wrong value in the client model:
// both the read check and the end-state scan must reject the row.
func TestCheckCatchesWrongModelValue(t *testing.T) {
	c, tbl, cl := smallTable(t)
	k := writtenRow(t, cl.m)
	i, _ := cl.m.index(k)
	cl.m.seq[i]++

	v, err := readOne(cl.sess, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.m.check(k, v); err == nil {
		t.Error("read check accepted a value the model does not hold")
	}
	got, err := scanTable(c, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScan(got, cl.m); err == nil {
		t.Error("end-state check accepted a value the model does not hold")
	}
}

// TestCheckCatchesDroppedWrite drops one acknowledged write from the
// database, by writing the row's previous version back behind the client's
// back: both the read check and the end-state scan must notice.
func TestCheckCatchesDroppedWrite(t *testing.T) {
	c, tbl, cl := smallTable(t)
	k := writtenRow(t, cl.m)
	i, _ := cl.m.index(k)
	prev := encodeValue(k, cl.m.seq[i]-1, 0, ycsbValue)

	s, err := c.Connect(2)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, keyOf(k), prev); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	v, err := readOne(cl.sess, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.m.check(k, v); err == nil {
		t.Error("read check accepted a dropped write")
	}
	got, err := scanTable(c, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScan(got, cl.m); err == nil {
		t.Error("end-state check accepted a dropped write")
	}
}

// TestCheckCatchesMissingAndExtraRows: the end-state scan must match the
// model row for row.
func TestCheckCatchesMissingAndExtraRows(t *testing.T) {
	c, tbl, cl := smallTable(t)
	got, err := scanTable(c, tbl)
	if err != nil {
		t.Fatal(err)
	}
	k := cl.m.row(3)
	v := got[k]
	delete(got, k)
	if err := checkScan(got, cl.m); err == nil {
		t.Error("end-state check accepted a missing row")
	}
	got[k] = v
	got[uint64(cl.m.rows())] = encodeValue(uint64(cl.m.rows()), 0, 0, ycsbValue)
	if err := checkScan(got, cl.m); err == nil {
		t.Error("end-state check accepted a row no client owns")
	}
}

// TestOwnerCheck: after a migration the owner check accepts the destination
// and rejects any other owner, and a shard that did not move fails it.
func TestOwnerCheck(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2})
	tbl, err := c.CreateTable("t", 2, 0, func(int) base.NodeID { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if err := loadRows(c, tbl, 200, ycsbValue, 0); err != nil {
		t.Fatal(err)
	}
	moved, stayed := tbl.FirstShard, tbl.FirstShard+1
	var mig migTally
	tr := newTracer(false, newSpanLog())
	if err := mig.migrate(c, newControllers(c, tr, t.TempDir()), tr, []base.ShardID{moved}, 2); err != nil {
		t.Fatal(err)
	}
	if err := checkOwners(c, []base.ShardID{moved}, 1); err == nil {
		t.Error("owner check accepted the source as owner of a moved shard")
	}
	if err := checkOwners(c, []base.ShardID{stayed}, 2); err == nil {
		t.Error("owner check accepted a destination that never received the shard")
	}
}

// TestDecodeRejectsCorruptValue: a value whose pad or size is wrong is not
// accepted as any row's value.
func TestDecodeRejectsCorruptValue(t *testing.T) {
	v := []byte(encodeValue(5, 2, 0, ycsbValue))
	v[headerBytes+1] ^= 0xff
	if _, _, _, err := decodeValue(base.Value(v), ycsbValue); err == nil {
		t.Error("corrupt pad accepted")
	}
	if _, _, _, err := decodeValue(encodeValue(5, 2, 0, ycsbValue)[:50], ycsbValue); err == nil {
		t.Error("short value accepted")
	}
}

// TestSmokeEveryMetric runs every workload briefly, untraced and traced —
// those BENCHMARK.json lists and the informational durable one — and checks
// that each run reports exactly the metrics BENCHMARK.json lists, with
// correct outputs.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(runConfig{seed: 3, seconds: 0.3, trace: trace, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			metrics := rep.metrics(trace)
			for _, e := range rep.errors {
				t.Errorf("%s trace=%v: %v", name, trace, e)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				if _, ok := metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				}
			}
			if rep.attempted == 0 {
				t.Errorf("%s trace=%v: no operations attempted", name, trace)
			}
			// durable may fail only its moved read-backs, a whole tail per
			// round.
			if name == "durable" {
				if rep.failed%bankTail != 0 {
					t.Errorf("durable trace=%v: %d operations failed, want a multiple of %d", trace, rep.failed, bankTail)
				}
			} else if rep.failed != 0 {
				t.Errorf("%s trace=%v: %d operations failed", name, trace, rep.failed)
			}
			for m, v := range metrics {
				if !strings.HasSuffix(m, "_pct") && v.Value < 0 {
					t.Errorf("%s trace=%v: %s = %v", name, trace, m, v.Value)
				}
			}
		}
	}
}
