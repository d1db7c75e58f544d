package main

import (
	"bytes"
	"hash/crc32"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"minion.(*wireConn).Send":                    "minion",
		"minion/internal/ucobs.(*Conn).Send":         "ucobs",
		"minion/internal/cobs.Encode":                "ucobs",
		"minion/internal/tlsrec.(*Seal).SealInto":    "utls",
		"minion/internal/stream.(*Assembler).Insert": "tcp",
		"minion/internal/udp.(*Conn).Input":          "utcp",
		"minion/internal/wire.(*Conn).writeLoop":     "wire",
		"minion/internal/rt.(*Loop).run":             "rt",
		"minion/internal/buf.Get":                    "buf",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/maps.(*Map).getWithKey":    "runtime",
		"internal/runtime/syscall.Syscall6":          "",
		"syscall.write":                              "",
		"crypto/aes.gcmAesEnc":                       "",
		"main.(*session).bulkSender.func1":           "bench",
		"runtime/pprof.profileWriter":                "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeInnermostLayer checks that a sample goes to the innermost
// frame in a layer: syscalls and crypto are charged to their caller.
func TestAttributeInnermostLayer(t *testing.T) {
	stacks := [][]string{
		{"internal/runtime/syscall.Syscall6", "syscall.write", "minion/internal/wire.(*Conn).writeLoop"},
		{"crypto/aes.gcmAesEnc", "crypto/cipher.(*gcm).Seal", "minion/internal/tlsrec.(*Seal).SealInto", "minion/internal/utls.(*Conn).Send"},
		{"runtime.mallocgc", "minion/internal/ucobs.(*Conn).Send"},
		{"runtime/pprof.profileWriter"},
	}
	got := attribute(stacks, []int64{3, 2, 1, 4})
	want := map[string]int64{"wire": 3, "utls": 2, "runtime": 1, "": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("layer %q: %d, want %d", k, got[k], v)
		}
	}
}

func TestBusyRowsSumToCPU(t *testing.T) {
	weights := map[string]int64{"wire": 30, "utls": 25, "runtime": 20, "bench": 5, "": 20}
	rows, unattributed := busyRows(7.5, weights)
	sum := unattributed
	for _, v := range rows {
		sum += v
	}
	if math.Abs(sum-7.5) > 1e-9 {
		t.Errorf("rows sum to %v, want 7.5", sum)
	}
	if math.Abs(rows["wire"]-7.5*0.3) > 1e-9 || math.Abs(unattributed-7.5*0.2) > 1e-9 {
		t.Errorf("wire %v unattributed %v", rows["wire"], unattributed)
	}
	if rows, un := busyRows(7.5, nil); un != 0 || rows["wire"] != 0 {
		t.Error("no samples: rows must be 0")
	}
}

var sink uint32

// spin burns CPU in this package, so the profile charges it to "bench".
func spin(d time.Duration) {
	buf := make([]byte, 1<<16) // most of the time inside crc32, called from here
	for t0 := time.Now(); time.Since(t0) < d; {
		sink += crc32.ChecksumIEEE(buf)
	}
}

// TestParseProfile decodes a real CPU profile of this process and checks
// that the busy loop above is charged to the benchmark's own row.
func TestParseProfile(t *testing.T) {
	var b bytes.Buffer
	if err := pprof.StartCPUProfile(&b); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	w := attribute(p.stacks, p.weights)
	var total int64
	for _, v := range w {
		total += v
	}
	if total < 10 {
		t.Skipf("only %d samples", total)
	}
	if share := float64(w["bench"]) / float64(total); share < 0.5 {
		t.Errorf("bench share %.2f of %d samples, want most: %v", share, total, w)
	}
}
