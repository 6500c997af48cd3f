package metrics

import (
	"fmt"
	"io"
	"strings"
)

// PromName sanitizes a metric name into the Prometheus charset
// [a-zA-Z0-9_] and prefixes the simulator namespace.
func PromName(name string) string {
	var b strings.Builder
	b.WriteString("roborepair_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ErrWriter folds the write errors of a line-by-line exporter into one
// sticky error: after the first failure every Printf is a no-op.
type ErrWriter struct {
	W   io.Writer
	Err error
}

// Printf writes one formatted piece unless an earlier write failed.
func (e *ErrWriter) Printf(format string, args ...any) {
	if e.Err != nil {
		return
	}
	_, e.Err = fmt.Fprintf(e.W, format, args...)
}
