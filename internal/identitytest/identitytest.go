// Package identitytest holds the shared axes of the determinism-contract
// tests: output bytes must be a pure function of the row multiset whatever
// the scan batch size, fold parallelism, sharding or merge order. Tests in
// the owning packages sweep these values instead of declaring their own.
package identitytest

// ScanBatches are the block-scan batch sizes every streamed consumer must
// be invariant under: one row per batch, the default batch, and the whole
// file in one batch.
var ScanBatches = []int{1, 4096, 1 << 30}

// FoldPars are the fold parallelism settings: serial, a fixed pool, and
// all CPUs (0).
var FoldPars = []int{1, 4, 0}

// ShardCounts are the sketch shardings merges must be invariant under:
// one holder, an odd count, and many small holders.
var ShardCounts = []int{1, 7, 64}

// MergeOrders returns deterministic permutations of 0..n-1: identity,
// reversed, and an odd-stride interleave (a fixed stand-in for an
// arbitrary permutation). n == 1 has only the identity.
func MergeOrders(n int) [][]int {
	id := make([]int, n)
	rev := make([]int, n)
	for i := 0; i < n; i++ {
		id[i] = i
		rev[i] = n - 1 - i
	}
	if n == 1 {
		return [][]int{id}
	}
	step := 5
	for step%n == 0 {
		step++
	}
	stride := make([]int, 0, n)
	seen := make([]bool, n)
	at := 0
	for len(stride) < n {
		for seen[at] {
			at = (at + 1) % n
		}
		stride = append(stride, at)
		seen[at] = true
		at = (at + step) % n
	}
	return [][]int{id, rev, stride}
}
