package join

import (
	"encoding/binary"
	"sync"
)

// Chunks calls fn(w, lo, hi) for each of `workers` contiguous chunks of
// [0, n), concurrently when there is more than one, and waits for them.
// It is the fork-join step of the kernels' chunk-parallel setup passes.
func Chunks(n, workers int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, n*w/workers, n*(w+1)/workers)
		}(w)
	}
	wg.Wait()
}

// GatherPayload copies payload rows[i] of src to payload i of dst, for
// payloads of w bytes: the last step of a setup that reordered (key, row
// number) pairs instead of whole tuples. The two widths the workloads use
// most move as one word.
//
//cyclolint:hotpath
func GatherPayload(dst, src []byte, rows []uint32, w int) {
	switch w {
	case 0:
	case 4:
		for i, row := range rows {
			binary.LittleEndian.PutUint32(dst[i*4:], binary.LittleEndian.Uint32(src[int(row)*4:]))
		}
	case 8:
		for i, row := range rows {
			binary.LittleEndian.PutUint64(dst[i*8:], binary.LittleEndian.Uint64(src[int(row)*8:]))
		}
	default:
		for i, row := range rows {
			copy(dst[i*w:(i+1)*w], src[int(row)*w:])
		}
	}
}
