package kernels

// keyFusedOps is how many fused epilogue ops a Key holds inline. Real
// fusion chains are two to four ops long (GEMM + activation + residual,
// add + layernorm); longer ones spill into Key.fusedRest.
const keyFusedOps = 8

// Key is the comparable identity of a Kernel: two kernels have equal keys
// exactly when every field a forecast can depend on is equal — operator,
// dimensions, precision, the fusion fields and ConvInputElems. It is at
// least as fine as Label (which omits FusedFLOPs, FusedBytes and
// ConvInputElems), so kernels that share a Key share a Label and hence a
// forecast from every label-keyed cache. Kernel itself carries a slice and
// cannot key a map; Key can, and building one allocates nothing unless a
// fusion chain is longer than keyFusedOps.
type Key struct {
	op         Op
	b, m, k, n int
	dtype      DType
	fused      bool
	fusedFLOPs float64
	fusedBytes float64
	// fusedOps holds the first keyFusedOps fused ops, each stored as op+1
	// so that "no op" (0) differs from OpBMM; fusedRest holds any beyond.
	fusedOps       [keyFusedOps]uint8
	fusedRest      string
	convInputElems float64
}

// Key returns k's comparable identity.
func (k Kernel) Key() Key {
	key := Key{
		op: k.Op, b: k.B, m: k.M, k: k.K, n: k.N, dtype: k.DType,
		fused: k.Fused, fusedFLOPs: k.FusedFLOPs, fusedBytes: k.FusedBytes,
		convInputElems: k.ConvInputElems,
	}
	ops := k.FusedOps
	if len(ops) > keyFusedOps {
		rest := make([]byte, len(ops)-keyFusedOps)
		for i, o := range ops[keyFusedOps:] {
			rest[i] = uint8(o) + 1
		}
		key.fusedRest = string(rest)
		ops = ops[:keyFusedOps]
	}
	for i, o := range ops {
		key.fusedOps[i] = uint8(o) + 1
	}
	return key
}
