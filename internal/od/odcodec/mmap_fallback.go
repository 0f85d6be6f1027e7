//go:build !unix

package odcodec

import (
	"errors"
	"os"
)

// mmapFile on platforms without a wired-up mmap syscall always fails,
// and the reader falls back to positioned reads.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.New("memory mapping not supported on this platform")
}

func munmapFile(b []byte) error { return nil }
