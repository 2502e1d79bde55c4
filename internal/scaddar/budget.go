package scaddar

import (
	"fmt"
	"math"
	"math/big"

	"scaddar/internal/prng"
)

// Budget tracks the shrinking random-number range across scaling operations
// and implements the paper's Section 4.3 analysis. Each operation j divides
// the usable range by N_{j-1}; Lemma 4.2 bounds the post-op range by
// R_0 div μ_k with μ_k = N_0·N_1·…·N_k, and Lemma 4.3 shows the unfairness
// coefficient stays below ε while μ_k ≤ R_0·ε/(1+ε). Budget keeps μ_k as an
// exact big integer — the paper's "in an implementation of this scheme, we
// can keep track of the quantity μ_k explicitly and find out whether the
// next operation will lead to a violation of the precondition".
type Budget struct {
	bits uint
	r0   *big.Int // 2^bits - 1
	mu   *big.Int // N0 * N1 * ... * Nk
	k    int      // number of recorded operations
}

// NewBudget creates a budget for a b-bit generator and an initial array of
// n0 disks (so μ_0 = N_0).
func NewBudget(bits uint, n0 int) (*Budget, error) {
	if bits == 0 || bits > 64 {
		return nil, fmt.Errorf("scaddar: budget bits %d outside [1,64]", bits)
	}
	if n0 < 1 {
		return nil, fmt.Errorf("scaddar: budget initial disks %d, need at least 1", n0)
	}
	r0 := new(big.Int).Lsh(big.NewInt(1), bits)
	r0.Sub(r0, big.NewInt(1))
	return &Budget{bits: bits, r0: r0, mu: big.NewInt(int64(n0))}, nil
}

// MustNewBudget is NewBudget for statically valid arguments; it panics on
// error.
//
//unreached:testsupport the budget tests build theirs with it
func MustNewBudget(bits uint, n0 int) *Budget {
	b, err := NewBudget(bits, n0)
	if err != nil {
		panic(err)
	}
	return b
}

// Bits returns the generator width b.
func (b *Budget) Bits() uint { return b.bits }

// Ops returns the number of operations recorded so far.
func (b *Budget) Ops() int { return b.k }

// Mu returns a copy of the exact product μ_k = N_0·N_1·…·N_k.
func (b *Budget) Mu() *big.Int { return new(big.Int).Set(b.mu) }

// Record accounts for a scaling operation that leaves the array with nAfter
// disks, multiplying μ by N_j = nAfter.
func (b *Budget) Record(nAfter int) error {
	if nAfter < 1 {
		return fmt.Errorf("scaddar: budget record of %d disks", nAfter)
	}
	b.mu.Mul(b.mu, big.NewInt(int64(nAfter)))
	b.k++
	return nil
}

// GuaranteedUnfairness returns the Lemma 4.2/4.3 upper bound on the
// unfairness coefficient after the recorded operations:
// f ≤ 1/(R_0 div μ_k - ... ), conservatively 1/(R_0/μ_k - 1). It returns
// +Inf when the guaranteed range has collapsed (μ_k ≥ R_0).
func (b *Budget) GuaranteedUnfairness() float64 {
	// f(R_k, N_k) = 1/(R_k div N_k) and R_k div N_k >= R_0 div mu_k
	// (Lemma 4.2), but the proof of Lemma 4.3 uses the safer
	// R_0 div mu_k > R_0/mu_k - 1, so we report 1/(R_0/mu_k - 1).
	ratio := new(big.Rat).SetFrac(b.r0, b.mu)
	f, _ := ratio.Float64()
	if f <= 1 {
		return math.Inf(1)
	}
	return 1 / (f - 1)
}

// WithinTolerance reports whether the Lemma 4.3 precondition
// μ_k ≤ R_0·ε/(1+ε) still holds for the given tolerance, i.e. whether the
// unfairness coefficient is guaranteed to be below eps.
func (b *Budget) WithinTolerance(eps float64) bool {
	return b.satisfies(b.mu, eps)
}

// NextWithinTolerance reports whether recording one more operation that
// leaves nAfter disks would still satisfy the Lemma 4.3 precondition. A
// false result is the paper's signal that a complete redistribution (which
// resets the chain and the budget) should be scheduled instead.
func (b *Budget) NextWithinTolerance(nAfter int, eps float64) bool {
	next := new(big.Int).Mul(b.mu, big.NewInt(int64(nAfter)))
	return b.satisfies(next, eps)
}

// satisfies checks mu <= R0 * eps / (1+eps) exactly, in rational arithmetic.
func (b *Budget) satisfies(mu *big.Int, eps float64) bool {
	if eps <= 0 {
		return false
	}
	e := new(big.Rat).SetFloat64(eps)
	if e == nil {
		return false
	}
	bound := new(big.Rat).SetInt(b.r0)
	bound.Mul(bound, e)
	onePlus := new(big.Rat).Add(big.NewRat(1, 1), e)
	bound.Quo(bound, onePlus)
	muRat := new(big.Rat).SetInt(mu)
	return muRat.Cmp(bound) <= 0
}

// Reset restores the budget to its initial state with n0 disks, modeling the
// complete redistribution the paper recommends once the precondition fails:
// after redistributing every block with fresh X_0 values, the chain restarts.
func (b *Budget) Reset(n0 int) error {
	if n0 < 1 {
		return fmt.Errorf("scaddar: budget reset with %d disks", n0)
	}
	b.mu = big.NewInt(int64(n0))
	b.k = 0
	return nil
}

// RuleOfThumb returns the paper's a-priori estimate of the number of scaling
// operations k supportable with a b-bit generator, an average of avgDisks
// disks, and unfairness tolerance eps:
//
//	k + 1 <= (b - log2(1/eps)) / log2(avgDisks)
//
// The worked example in Section 4.3 — b=64, eps=1%, 16 disks — yields k=13.
// It returns 0 if even a single operation cannot be guaranteed.
func RuleOfThumb(bits uint, eps float64, avgDisks float64) int {
	if bits == 0 || eps <= 0 || avgDisks <= 1 {
		return 0
	}
	num := float64(bits) - math.Log2(1/eps)
	den := math.Log2(avgDisks)
	kPlus1 := math.Floor(num / den)
	if kPlus1 < 1 {
		return 0
	}
	return int(kPlus1) - 1
}

// MaxOpsExact simulates the exact Lemma 4.3 precondition for a fixed
// per-operation disk count trajectory and returns the largest number of
// operations whose product stays within tolerance. disksAfterOp returns N_j
// given j (1-based); the simulation stops after maxOps probes.
func MaxOpsExact(bits uint, n0 int, eps float64, disksAfterOp func(j int) int, maxOps int) (int, error) {
	b, err := NewBudget(bits, n0)
	if err != nil {
		return 0, err
	}
	for j := 1; j <= maxOps; j++ {
		n := disksAfterOp(j)
		if n < 1 {
			return 0, fmt.Errorf("scaddar: trajectory gives %d disks at op %d", n, j)
		}
		if !b.NextWithinTolerance(n, eps) {
			return j - 1, nil
		}
		if err := b.Record(n); err != nil {
			return 0, err
		}
	}
	return maxOps, nil
}

// RangeAfter returns the guaranteed remaining random range R_0 div μ_k after
// the recorded operations (Lemma 4.2's lower bound on R_k div N_k times N_k,
// i.e. the per-disk resolution of the remaining randomness).
func (b *Budget) RangeAfter() *big.Int {
	return new(big.Int).Div(b.r0, b.mu)
}

// BudgetFor builds a Budget that has already recorded every operation of a
// History, pairing an existing log with the Section 4.3 analysis.
//
//unreached:testsupport only TestBudgetFor calls it: it goes when that test may (CHANGES.md, PR 23)
func BudgetFor(src prng.Source, h *History) (*Budget, error) {
	b, err := NewBudget(src.Bits(), h.N0())
	if err != nil {
		return nil, err
	}
	for j := 1; j <= h.Ops(); j++ {
		if err := b.Record(h.NAt(j)); err != nil {
			return nil, err
		}
	}
	return b, nil
}
