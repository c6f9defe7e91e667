package checkpoint

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Compressed wraps a Store with gzip compression: snapshots are
// compressed before hitting stable storage and decompressed on load.
// Iteration state is highly compressible (columns of similar
// entries), so this trades CPU for a large cut in checkpoint volume —
// experiment E6 reports both sides. Save compresses on the caller's
// goroutine, so under an AsyncWriter the encoder goroutines pay for it,
// not the superstep barrier.
func Compressed(inner Store) Store {
	return &compressedStore{inner: inner}
}

type compressedStore struct {
	inner Store
	raw   atomic.Int64 // uncompressed bytes, for the compression-ratio report
}

// gzipPool recycles gzip.Writers across snapshots via Reset. A
// gzip.Writer carries ~1.4 MB of deflate tables; re-allocating one per
// checkpoint dominated the compression path's allocations (asserted by
// BenchmarkCheckpointCompress).
var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

func compress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	if _, err := zw.Write(data); err != nil {
		gzipPool.Put(zw)
		return nil, fmt.Errorf("checkpoint: compressing snapshot: %v", err)
	}
	if err := zw.Close(); err != nil {
		gzipPool.Put(zw)
		return nil, fmt.Errorf("checkpoint: compressing snapshot: %v", err)
	}
	gzipPool.Put(zw)
	return buf.Bytes(), nil
}

func decompress(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decompressing snapshot: %v", err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decompressing snapshot: %v", err)
	}
	return out, nil
}

// Save implements Store.
func (c *compressedStore) Save(job string, superstep int, data []byte) error {
	packed, err := compress(data)
	if err != nil {
		return err
	}
	c.raw.Add(int64(len(data)))
	return c.inner.Save(job, superstep, packed)
}

// Load implements Store.
func (c *compressedStore) Load(job string) ([]byte, int, bool, error) {
	packed, superstep, ok, err := c.inner.Load(job)
	if err != nil || !ok {
		return nil, superstep, ok, err
	}
	data, err := decompress(packed)
	if err != nil {
		return nil, 0, false, err
	}
	return data, superstep, true, nil
}

// BytesWritten implements Store: the compressed (actually stored)
// volume.
func (c *compressedStore) BytesWritten() int64 { return c.inner.BytesWritten() }

// Saves implements Store.
func (c *compressedStore) Saves() int { return c.inner.Saves() }

// Delete implements Deleter by forwarding to the inner store (a no-op
// if the inner store cannot delete).
func (c *compressedStore) Delete(job string) error {
	if del, ok := c.inner.(Deleter); ok {
		return del.Delete(job)
	}
	return nil
}

// SweepTemp implements TempSweeper by forwarding to the inner store (a
// no-op if the inner store keeps no temp files).
func (c *compressedStore) SweepTemp(jobPrefix string) error {
	if ts, ok := c.inner.(TempSweeper); ok {
		return ts.SweepTemp(jobPrefix)
	}
	return nil
}

// RawBytes returns the pre-compression volume, for reporting the
// compression ratio.
func (c *compressedStore) RawBytes() int64 { return c.raw.Load() }

// RawBytes reports the uncompressed snapshot volume of a Compressed
// store (0 for other stores).
func RawBytes(s Store) int64 {
	if c, ok := s.(*compressedStore); ok {
		return c.RawBytes()
	}
	return 0
}
