package pthread

import "encoding/binary"

// TimingKey encodes exactly the fields of the p-thread set pts that the
// timing backend reads, in selection order: per p-thread the TriggerPC, the
// RegionStart/RegionEnd launch window, and for each body instruction the
// whole isa.Inst, Dep and MemDep. Two sets with equal keys time
// identically on any trace, whatever their model outputs (Roots, DCtrig,
// DCptcm, LT, OH, ADVagg, FullCov) — which differ between selections that
// reach the same bodies through different model knobs. Every value is
// varint-encoded behind its count, so the encoding is unambiguous.
func TimingKey(pts []*PThread) string {
	n := 0
	for _, pt := range pts {
		n += 4 + 10*len(pt.Body)
	}
	b := make([]byte, 0, 2*n)
	b = binary.AppendUvarint(b, uint64(len(pts)))
	for _, pt := range pts {
		b = binary.AppendVarint(b, int64(pt.TriggerPC))
		b = binary.AppendVarint(b, pt.RegionStart)
		b = binary.AppendVarint(b, pt.RegionEnd)
		b = binary.AppendUvarint(b, uint64(len(pt.Body)))
		for _, bi := range pt.Body {
			in := bi.Inst
			b = append(b, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2))
			b = binary.AppendVarint(b, in.Imm)
			b = binary.AppendVarint(b, int64(in.Target))
			b = binary.AppendVarint(b, int64(bi.Dep[0]))
			b = binary.AppendVarint(b, int64(bi.Dep[1]))
			b = binary.AppendVarint(b, int64(bi.MemDep))
		}
	}
	return string(b)
}
