// Package examples embeds the repository's example workload specs. The
// scale presets are defined only here, as spec files: figures.Presets
// compiles them, so "repro -experiment cluster" and
// "repro -spec examples/cluster.yaml" read the same bytes.
package examples

import "embed"

// PresetNames lists the scale presets in registry order. Each name N is
// the spec file N.yaml in this directory.
var PresetNames = []string{"million-qps", "cluster", "sharded", "faulty-cluster", "hour-long"}

// Specs holds every example spec file, keyed by file name. Embedding
// the whole directory keeps PresetNames the only list of presets.
//
//go:embed *.yaml
var Specs embed.FS
