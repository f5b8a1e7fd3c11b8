// Package unusedref references package unused from another package, as
// the golden test of the unused check needs.
package unusedref

import "github.com/tmerge/tmerge/internal/analysis/testdata/src/unused"

func use() unused.Shape {
	unused.UsedElsewhere()
	return unused.Shape{}
}
