// Package mem provides the simulator's memory system: a flat functional
// memory that backs emulation, and a timing model of the GPU cache/DRAM
// hierarchy (set-associative L1 and banked L2 caches, banked DRAM with
// row-buffer and queueing effects) used by the detailed simulation mode.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

const (
	pageBits = 16
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Flat is a sparse, byte-addressable functional memory with a bump
// allocator. Buffers are allocated in the low 4 GiB so that 32-bit registers
// can hold pointers, matching the kernels' 32-bit pointer convention.
type Flat struct {
	pages map[uint64][]byte
	brk   uint64

	// mu guards the page map for FlatView access only. Flat's own methods
	// stay unlocked — the serial simulation path is single-goroutine and
	// pays nothing for the views' existence.
	mu sync.RWMutex

	// Single-entry page cache: GPU kernels stream through buffers, so
	// consecutive accesses overwhelmingly hit the same 64 KiB page and skip
	// the map lookup.
	lastPN   uint64
	lastPage []byte
}

// NewFlat returns an empty memory. Allocation starts at 64 KiB so that
// address 0 stays unmapped (helps catch null-pointer bugs in kernels).
func NewFlat() *Flat {
	return &Flat{pages: make(map[uint64][]byte), brk: pageSize, lastPN: ^uint64(0)}
}

// Alloc reserves size bytes and returns the base address, 256-byte aligned.
func (m *Flat) Alloc(size uint64) uint64 {
	const align = 256
	m.brk = (m.brk + align - 1) &^ uint64(align-1)
	base := m.brk
	m.brk += size
	if m.brk >= 1<<32 {
		panic(fmt.Sprintf("mem: allocation exceeds 32-bit pointer space (brk=%#x)", m.brk))
	}
	return base
}

// Footprint returns the total bytes allocated so far.
func (m *Flat) Footprint() uint64 { return m.brk - pageSize }

func (m *Flat) page(addr uint64) []byte {
	pn := addr >> pageBits
	if pn == m.lastPN {
		return m.lastPage
	}
	p, ok := m.pages[pn]
	if !ok {
		p = make([]byte, pageSize)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// Read32 loads a little-endian 32-bit word. Unaligned accesses that straddle
// a page boundary are handled byte-wise.
func (m *Flat) Read32(addr uint64) uint32 {
	off := addr & pageMask
	if off+4 <= pageSize {
		return binary.LittleEndian.Uint32(m.page(addr)[off:])
	}
	var b [4]byte
	for i := range b {
		a := addr + uint64(i)
		b[i] = m.page(a)[a&pageMask]
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores a little-endian 32-bit word.
func (m *Flat) Write32(addr uint64, v uint32) {
	off := addr & pageMask
	if off+4 <= pageSize {
		binary.LittleEndian.PutUint32(m.page(addr)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	for i := range b {
		a := addr + uint64(i)
		m.page(a)[a&pageMask] = b[i]
	}
}

// Window returns the n bytes at addr as a slice of their page, so a caller
// can move a contiguous span with one page lookup instead of one per word.
// It reports false when the span crosses a page boundary. Writes through
// the slice land in memory.
func (m *Flat) Window(addr uint64, n int) ([]byte, bool) {
	off := addr & pageMask
	if off+uint64(n) > pageSize {
		return nil, false
	}
	return m.page(addr)[off : off+uint64(n)], true
}

// ReadF32 loads a float32.
func (m *Flat) ReadF32(addr uint64) float32 { return math.Float32frombits(m.Read32(addr)) }

// WriteF32 stores a float32.
func (m *Flat) WriteF32(addr uint64, v float32) { m.Write32(addr, math.Float32bits(v)) }

// WriteWords stores a slice of 32-bit words starting at base.
func (m *Flat) WriteWords(base uint64, words []uint32) {
	for i, w := range words {
		m.Write32(base+uint64(i)*4, w)
	}
}

// WriteFloats stores a slice of float32 starting at base.
func (m *Flat) WriteFloats(base uint64, vals []float32) {
	for i, v := range vals {
		m.WriteF32(base+uint64(i)*4, v)
	}
}

// ReadFloats loads n float32 values starting at base.
func (m *Flat) ReadFloats(base uint64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.ReadF32(base + uint64(i)*4)
	}
	return out
}

// ReadWords loads n 32-bit words starting at base.
func (m *Flat) ReadWords(base uint64, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.Read32(base + uint64(i)*4)
	}
	return out
}

// FlatView is a per-goroutine window onto a Flat. The quantum-laned engine
// gives each lane its own view: views share the page map (lock-guarded on
// the miss path) but keep private single-entry page caches, so concurrent
// lanes never touch Flat's unlocked cache fields. Lanes address disjoint
// byte ranges by construction (per-warp output segments; shared atomics are
// deferred to the barrier), so page bytes themselves need no locking.
type FlatView struct {
	f        *Flat
	lastPN   uint64
	lastPage []byte
}

// View returns a fresh view of m. Concurrent use of views is safe; using
// Flat's own methods concurrently with views is not.
func (m *Flat) View() *FlatView {
	return &FlatView{f: m, lastPN: ^uint64(0)}
}

// sharedPage returns (creating under the write lock if needed) page pn.
func (m *Flat) sharedPage(pn uint64) []byte {
	m.mu.RLock()
	p, ok := m.pages[pn]
	m.mu.RUnlock()
	if ok {
		return p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.pages[pn]; ok {
		return p
	}
	p = make([]byte, pageSize)
	m.pages[pn] = p
	return p
}

func (v *FlatView) page(addr uint64) []byte {
	pn := addr >> pageBits
	if pn == v.lastPN {
		return v.lastPage
	}
	p := v.f.sharedPage(pn)
	v.lastPN, v.lastPage = pn, p
	return p
}

// Read32 loads a little-endian 32-bit word through the view.
func (v *FlatView) Read32(addr uint64) uint32 {
	off := addr & pageMask
	if off+4 <= pageSize {
		return binary.LittleEndian.Uint32(v.page(addr)[off:])
	}
	var b [4]byte
	for i := range b {
		a := addr + uint64(i)
		b[i] = v.page(a)[a&pageMask]
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Window is Flat.Window through the view's page cache.
func (v *FlatView) Window(addr uint64, n int) ([]byte, bool) {
	off := addr & pageMask
	if off+uint64(n) > pageSize {
		return nil, false
	}
	return v.page(addr)[off : off+uint64(n)], true
}

// Write32 stores a little-endian 32-bit word through the view.
func (v *FlatView) Write32(addr uint64, x uint32) {
	off := addr & pageMask
	if off+4 <= pageSize {
		binary.LittleEndian.PutUint32(v.page(addr)[off:], x)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	for i := range b {
		a := addr + uint64(i)
		v.page(a)[a&pageMask] = b[i]
	}
}
