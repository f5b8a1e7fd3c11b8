// Package unused seeds unused-check violations for the analyzer's
// golden test, which loads it together with package unusedref.
package unused

// Used is called by helper, in a non-test file of this package.
func Used() int { return Limit }

// Limit is read by Used.
const Limit = 3

// Stranded is called by nothing.
func Stranded() {} // want unused

// TestOnly is called only from unused_test.go, which does not count.
func TestOnly() {} // want unused

// UsedElsewhere is called from package unusedref.
func UsedElsewhere() {}

// Shape is the receiver of a method nothing calls; methods are out of
// scope, and Shape itself is named by unusedref.
type Shape struct{}

// Area may exist only to satisfy an interface.
func (Shape) Area() float64 { return 0 }

// Orphan is a type nothing names.
type Orphan struct{} // want unused

var (
	// Counter is never read.
	Counter int // want unused
	// private is unexported and out of scope.
	private int
)

// Grouped consts are checked name by name.
const (
	Read  = 1 // want unused
	Write = 2
)

func helper() int { return Used() + private + Write }
