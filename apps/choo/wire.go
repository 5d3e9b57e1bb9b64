package choo

import (
	"fmt"
	"time"

	"altrun/internal/serve"
)

// ProgSpec is a choo program submission. It holds source, not a
// lowered form, so whoever builds the job parses it.
type ProgSpec struct {
	// ProgID is the submitter-chosen program identity (names the job).
	ProgID int64
	// Source is the program text.
	Source string
	// DeadlineMS bounds the job end to end (0 = pool default).
	DeadlineMS int64
	// MaxDegree caps concurrent alternatives (0 = pool default).
	MaxDegree int
}

// Job parses the spec's source and lowers it.
func (s ProgSpec) Job() (serve.Job, error) {
	prog, err := Parse(s.Source)
	if err != nil {
		return serve.Job{}, fmt.Errorf("choo: parse: %w", err)
	}
	return CompileJob(fmt.Sprintf("choo-%d", s.ProgID), prog, JobOptions{
		MaxDegree: s.MaxDegree,
		Deadline:  time.Duration(s.DeadlineMS) * time.Millisecond,
	}), nil
}
