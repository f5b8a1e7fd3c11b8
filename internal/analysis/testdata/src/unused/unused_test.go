package unused

import "testing"

func TestOnlyUse(t *testing.T) { TestOnly() }
