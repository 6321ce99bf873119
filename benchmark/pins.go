package main

import (
	_ "embed"
	"encoding/json"
	"runtime"
	"strconv"
)

// pinsJSON holds the SHA-256 of each full-size workload output for seed 1
// and the held-out seed 2, recorded on one GOARCH: floating-point results are
// only bit-stable on the architecture they were recorded on.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	GOARCH  string                       `json:"goarch"`
	Digests map[string]map[string]string `json:"digests"` // output → seed → sha256
}

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("benchmark: pins.json: " + err.Error())
	}
	return p
}()

// pinFor returns the pinned digest of output name for seed, if any.
func pinFor(name string, seed int64) (string, bool) {
	if pins.GOARCH != runtime.GOARCH {
		return "", false
	}
	d, ok := pins.Digests[name][strconv.FormatInt(seed, 10)]
	return d, ok
}
