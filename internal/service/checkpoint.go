package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/adapt"
	"repro/internal/shiftex"
)

// CheckpointSchemaVersion is bumped on any incompatible change to the
// checkpoint layout; Load refuses versions it does not understand. Version
// history:
//
//	1 — initial layout (implicitly the default adaptation policy)
//	2 — adds the adaptation-policy name; v1 files still load and resolve
//	    to the default policy, resuming bit-identically
const CheckpointSchemaVersion = 2

// checkpointLegacyVersion is the oldest schema Load still accepts.
const checkpointLegacyVersion = 1

// Checkpoint is the versioned on-disk snapshot of a runtime, written
// atomically after every completed window. It carries everything needed to
// resume the stream with bit-identical decisions: the protocol (config,
// adaptation policy, arch, seed), the position (windows done), and the
// full aggregator state including the RNG position. Party-side detector
// state lives with the parties and survives an aggregator restart on its
// own.
type Checkpoint struct {
	SchemaVersion int    `json:"schemaVersion"`
	Seed          uint64 `json:"seed"`
	Arch          []int  `json:"arch"`
	NumClasses    int    `json:"numClasses"`
	NumWindows    int    `json:"numWindows"`
	WindowsDone   int    `json:"windowsDone"` // next window to run
	// Policy is the adaptation policy the run executes (adapt registry
	// name); empty — every schema-1 checkpoint — means the default policy.
	Policy string `json:"policy,omitempty"`
	// PolicyVersion is the stage-contract version (adapt.PolicyVersion)
	// the run's policy was built under; 0 on schema-1 files. Load rejects
	// versions newer than this binary understands.
	PolicyVersion int                     `json:"policyVersion,omitempty"`
	Config        shiftex.Config          `json:"config"`
	Aggregator    shiftex.State           `json:"aggregator"`
	Reports       []*shiftex.WindowReport `json:"reports,omitempty"`
}

// PolicyName returns the checkpoint's adaptation policy, resolving the
// schema-1 empty field to the default.
func (cp *Checkpoint) PolicyName() string {
	if cp.Policy == "" {
		return adapt.DefaultPolicyName
	}
	return cp.Policy
}

// SaveCheckpoint writes the checkpoint via a temp file + rename so a crash
// mid-write never corrupts the previous good checkpoint.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	if cp.SchemaVersion == 0 {
		cp.SchemaVersion = CheckpointSchemaVersion
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.json")
	if err != nil {
		return fmt.Errorf("service: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Encoded straight into the file: json.Marshal would hold a second,
	// checkpoint-sized copy of the encoding while it is written.
	if err := json.NewEncoder(tmp).Encode(cp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("service: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("service: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("service: commit checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("service: decode checkpoint %s: %w", path, err)
	}
	if cp.SchemaVersion < checkpointLegacyVersion || cp.SchemaVersion > CheckpointSchemaVersion {
		return nil, fmt.Errorf("service: checkpoint %s has schema version %d, want %d..%d",
			path, cp.SchemaVersion, checkpointLegacyVersion, CheckpointSchemaVersion)
	}
	if cp.PolicyVersion > adapt.PolicyVersion {
		return nil, fmt.Errorf("service: checkpoint %s was written under stage-contract version %d; this binary understands %d",
			path, cp.PolicyVersion, adapt.PolicyVersion)
	}
	if cp.WindowsDone < 1 {
		return nil, fmt.Errorf("service: checkpoint %s precedes bootstrap (windowsDone=%d)", path, cp.WindowsDone)
	}
	if len(cp.Arch) < 3 {
		return nil, fmt.Errorf("service: checkpoint %s has invalid arch %v", path, cp.Arch)
	}
	return &cp, nil
}
