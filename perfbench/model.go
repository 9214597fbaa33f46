package main

import (
	"encoding/binary"
	"fmt"

	"remus/internal/base"
)

// Every value the benchmark writes encodes the key it belongs to and a
// per-key sequence number (plus, for bank accounts, the balance), so a read
// can be checked against the writer's own record of what it last had
// acknowledged, without trusting anything the program reports.
const headerBytes = 24

// encodeValue builds a value of size bytes (at least headerBytes) for key at
// sequence seq carrying balance bal; the pad after the header is a fixed
// function of key and seq.
func encodeValue(key, seq, bal uint64, size int) base.Value {
	if size < headerBytes {
		size = headerBytes
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v[0:], key)
	binary.BigEndian.PutUint64(v[8:], seq)
	binary.BigEndian.PutUint64(v[16:], bal)
	fill := byte(key*31 + seq*7)
	for i := headerBytes; i < size; i++ {
		v[i] = fill + byte(i)
	}
	return base.Value(v)
}

// decodeValue splits a value into its key, sequence and balance, checking
// that the pad is the one encodeValue writes.
func decodeValue(v base.Value, size int) (key, seq, bal uint64, err error) {
	if size < headerBytes {
		size = headerBytes
	}
	if len(v) != size {
		return 0, 0, 0, fmt.Errorf("value is %d bytes, want %d", len(v), size)
	}
	key = binary.BigEndian.Uint64([]byte(v[0:]))
	seq = binary.BigEndian.Uint64([]byte(v[8:]))
	bal = binary.BigEndian.Uint64([]byte(v[16:]))
	fill := byte(key*31 + seq*7)
	for i := headerBytes; i < size; i++ {
		if v[i] != fill+byte(i) {
			return 0, 0, 0, fmt.Errorf("value pad corrupt at byte %d", i)
		}
	}
	return key, seq, bal, nil
}

// keyOf is the storage key of row k.
func keyOf(k uint64) base.Key { return base.EncodeUint64Key(k) }

// model is one client's record of the rows it owns: for each row, the
// sequence number and balance of its last acknowledged write. A client owns
// rows first, first+stride, first+2*stride, ... and no other client writes
// them, so every read of a row must return exactly what the model holds.
type model struct {
	valueSize     int
	first, stride uint64
	seq           []uint64
	bal           []uint64
	// unsure holds rows whose last write failed at commit: the write may or
	// may not have landed, so the new version (balance given here) is also
	// accepted until the row is written again.
	unsure map[uint64]uint64
}

// newModel owns n rows from first with the given stride, each loaded at
// sequence 0 with balance bal.
func newModel(valueSize int, first, stride uint64, n int, bal uint64) *model {
	m := &model{
		valueSize: valueSize,
		first:     first,
		stride:    stride,
		seq:       make([]uint64, n),
		bal:       make([]uint64, n),
		unsure:    make(map[uint64]uint64),
	}
	for i := range m.bal {
		m.bal[i] = bal
	}
	return m
}

// rows is the number of rows the model owns.
func (m *model) rows() int { return len(m.seq) }

// row is the key of the model's i-th row.
func (m *model) row(i int) uint64 { return m.first + uint64(i)*m.stride }

// index maps a row to its slot; ok is false for a row the model does not own.
func (m *model) index(k uint64) (int, bool) {
	if k < m.first || (k-m.first)%m.stride != 0 {
		return 0, false
	}
	i := (k - m.first) / m.stride
	if i >= uint64(len(m.seq)) {
		return 0, false
	}
	return int(i), true
}

// next returns the value the next write of row k with balance bal carries.
func (m *model) next(k, bal uint64) base.Value {
	i, _ := m.index(k)
	return encodeValue(k, m.seq[i]+1, bal, m.valueSize)
}

// balance is row k's balance at its last acknowledged write.
func (m *model) balance(k uint64) uint64 {
	i, _ := m.index(k)
	return m.bal[i]
}

// acked records an acknowledged write of row k.
func (m *model) acked(k, bal uint64) {
	i, _ := m.index(k)
	m.seq[i]++
	m.bal[i] = bal
	delete(m.unsure, k)
}

// failed records a write of row k whose commit returned an error.
func (m *model) failed(k, bal uint64) {
	m.unsure[k] = bal
}

// check verifies that v is the value of row k the model expects.
func (m *model) check(k uint64, v base.Value) error {
	i, ok := m.index(k)
	if !ok {
		return fmt.Errorf("row %d: not owned by this client", k)
	}
	key, seq, bal, err := decodeValue(v, m.valueSize)
	if err != nil {
		return fmt.Errorf("row %d: %w", k, err)
	}
	if key != k {
		return fmt.Errorf("row %d: holds the value of row %d", k, key)
	}
	if seq == m.seq[i] && bal == m.bal[i] {
		return nil
	}
	if nb, ok := m.unsure[k]; ok && seq == m.seq[i]+1 && bal == nb {
		// The failed write did land: adopt it.
		m.acked(k, nb)
		return nil
	}
	return fmt.Errorf("row %d: read seq %d balance %d, last acknowledged seq %d balance %d", k, seq, bal, m.seq[i], m.bal[i])
}

// total is the sum of the balances the model holds.
func (m *model) total() uint64 {
	var t uint64
	for _, b := range m.bal {
		t += b
	}
	return t
}

// checkScan compares a full-table scan (row -> value) against the union of
// the clients' models: every owned row present with its expected value and
// no row the models do not know.
func checkScan(rows map[uint64]base.Value, models ...*model) error {
	owned := 0
	for _, m := range models {
		owned += m.rows()
		for i := 0; i < m.rows(); i++ {
			k := m.row(i)
			v, ok := rows[k]
			if !ok {
				return fmt.Errorf("end-state scan: row %d missing", k)
			}
			if err := m.check(k, v); err != nil {
				return fmt.Errorf("end-state scan: %w", err)
			}
		}
	}
	if len(rows) != owned {
		return fmt.Errorf("end-state scan: %d rows, the clients own %d", len(rows), owned)
	}
	return nil
}
