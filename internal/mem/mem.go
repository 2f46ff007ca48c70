// Package mem implements a sparse, paged, 64-bit word memory used by the
// functional interpreter and by the timing simulator's architectural state.
// Addresses are byte addresses; loads and stores operate on naturally
// aligned 8-byte words (the only granularity the PRX ISA has).
package mem

import "sort"

const (
	pageShift = 12 // 4KB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 8
	pageMask  = pageBytes - 1
)

type page [pageWords]int64

// Memory is a sparse 64-bit address space. The zero value is not usable; use
// New. Reads of unmapped addresses return 0 without allocating.
type Memory struct {
	pages map[uint64]*page
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// align rounds addr down to its containing word.
func align(addr int64) uint64 { return uint64(addr) &^ 7 }

// Read returns the 8-byte word containing addr (addr is aligned down).
func (m *Memory) Read(addr int64) int64 {
	a := align(addr)
	p := m.pages[a>>pageShift]
	if p == nil {
		return 0
	}
	return p[(a&pageMask)/8]
}

// Write stores val into the 8-byte word containing addr.
func (m *Memory) Write(addr int64, val int64) {
	a := align(addr)
	key := a >> pageShift
	p := m.pages[key]
	if p == nil {
		if val == 0 {
			return // writing zero to an unmapped word is a no-op
		}
		p = new(page)
		m.pages[key] = p
	}
	p[(a&pageMask)/8] = val
}

// WriteWords stores consecutive words starting at base.
func (m *Memory) WriteWords(base int64, vals []int64) {
	for i, v := range vals {
		m.Write(base+int64(i)*8, v)
	}
}

// ReadWords reads n consecutive words starting at base.
func (m *Memory) ReadWords(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Read(base + int64(i)*8)
	}
	return out
}

// Pages returns the number of mapped pages (for tests and footprint checks).
func (m *Memory) Pages() int { return len(m.pages) }

// Run is a maximal run of consecutive non-zero words: Vals[i] lives at byte
// address Base + 8*i.
type Run struct {
	Base int64
	Vals []int64
}

// Runs returns the memory's non-zero contents as address-ordered runs of
// consecutive words — the canonical form the PRX disassembler emits as
// .data/.word directives. Zero words inside a mapped page break runs, so
// assembling the runs back reproduces an image that reads identically
// (unmapped and explicit-zero words are indistinguishable to Read).
func (m *Memory) Runs() []Run {
	keys := make([]uint64, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var runs []Run
	var cur *Run
	for _, k := range keys {
		p := m.pages[k]
		pageBase := int64(k << pageShift)
		for i, v := range p {
			if v == 0 {
				cur = nil
				continue
			}
			addr := pageBase + int64(i)*8
			if cur != nil && cur.Base+int64(len(cur.Vals))*8 == addr {
				cur.Vals = append(cur.Vals, v)
				continue
			}
			runs = append(runs, Run{Base: addr})
			cur = &runs[len(runs)-1]
			cur.Vals = append(cur.Vals, v)
		}
	}
	return runs
}

// Clone returns a deep copy of the memory. The timing simulator clones the
// post-initialization image so p-thread speculative state can never corrupt
// the main thread's architectural memory. The copied pages share one
// allocation.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64]*page, len(m.pages))}
	pages := make([]page, len(m.pages))
	for k, p := range m.pages {
		i := len(c.pages)
		pages[i] = *p
		c.pages[k] = &pages[i]
	}
	return c
}
