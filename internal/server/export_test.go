package server

import "context"

// SetBeforeRowBatch installs f as the hook a query runs before each
// RowBatch frame it sends; nil removes it.
func SetBeforeRowBatch(f func(ctx context.Context)) { beforeRowBatch = f }
