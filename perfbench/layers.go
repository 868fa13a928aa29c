package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"time"

	"repro/internal/kbucket"
	"repro/internal/wire"
)

// nearestMicros times kbucket.Table.NearestPeers(key, 20) on the run's
// own routing tables, after the run: each table answers the same batch
// of seeded random keys, and the median per-call time is returned.
func nearestMicros(tables []*kbucket.Table, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]kbucket.Key, 32)
	for i := range keys {
		var b [32]byte
		rng.Read(b[:])
		keys[i] = kbucket.KeyForBytes(b[:])
	}
	var perCall sample
	for _, t := range tables {
		start := time.Now()
		for _, k := range keys {
			t.NearestPeers(k, 20)
		}
		perCall.addMicros(time.Since(start) / time.Duration(len(keys)))
	}
	return perCall.pct(50)
}

// codecNsPerByte replays a sample of the run's own messages through
// wire.WriteFrame and wire.ReadFrame and returns the median cost per
// framed byte over five replays; -1 if a frame fails to round-trip.
func codecNsPerByte(msgs []wire.Message) float64 {
	if len(msgs) == 0 {
		return 0
	}
	var buf bytes.Buffer
	var perByte sample
	for rep := 0; rep < 5; rep++ {
		buf.Reset()
		start := time.Now()
		for _, m := range msgs {
			if err := wire.WriteFrame(&buf, m); err != nil {
				return -1
			}
		}
		n := buf.Len()
		r := bufio.NewReader(&buf)
		for range msgs {
			if _, err := wire.ReadFrame(r); err != nil {
				return -1
			}
		}
		perByte.add(float64(time.Since(start)) / float64(n))
	}
	return perByte.pct(50)
}
