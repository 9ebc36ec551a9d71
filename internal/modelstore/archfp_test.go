package modelstore

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mindmappings/internal/arch"
)

// TestArchFingerprintMatchesFreshHash pins the cached default-spec
// fingerprints: arch.Default(n) is hashed once, and the cached value must
// equal a fresh hash of AppendFingerprint; any other spec hashes itself.
func TestArchFingerprintMatchesFreshHash(t *testing.T) {
	fresh := func(a arch.Spec) string {
		sum := sha256.Sum256(a.AppendFingerprint(nil))
		return hex.EncodeToString(sum[:])
	}
	for _, n := range []int{2, 3} {
		a := arch.Default(n)
		want := fresh(a)
		for call := 1; call <= 2; call++ {
			if got := ArchFingerprint(a); got != want {
				t.Fatalf("Default(%d) call %d: %s, fresh hash %s", n, call, got, want)
			}
		}
	}
	custom := arch.Default(2)
	custom.NumPEs = 128
	if got := ArchFingerprint(custom); got != fresh(custom) || got == ArchFingerprint(arch.Default(2)) {
		t.Fatalf("custom spec: %s, fresh hash %s", got, fresh(custom))
	}
}
