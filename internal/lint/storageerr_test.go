package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestStorageErr(t *testing.T) {
	linttest.Run(t, "testdata", lint.StorageErr, "storageerr")
}
