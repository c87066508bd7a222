package hpbdc

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// envSeeds returns an acceptance suite's seed sweep: the integers in the
// named environment variable, separated by commas and/or spaces, or def
// when it is unset or blank.
func envSeeds(t *testing.T, name string, def ...uint64) []uint64 {
	t.Helper()
	fields := strings.FieldsFunc(os.Getenv(name), func(r rune) bool {
		return r == ',' || unicode.IsSpace(r)
	})
	if len(fields) == 0 {
		return def
	}
	seeds := make([]uint64, len(fields))
	for i, f := range fields {
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatalf("%s: bad seed %q: %v", name, f, err)
		}
		seeds[i] = s
	}
	return seeds
}
