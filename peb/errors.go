package peb

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/codec"
)

// Sentinel errors. Match with errors.Is; the concrete errors returned by
// the API wrap these and add detail.
var (
	// ErrBadOptions is wrapped by every error Open and OpenExisting return
	// for an invalid Options value (negative sizes, speeds, or intervals).
	ErrBadOptions = errors.New("peb: bad options")

	// ErrClosed is returned by every method called after Close, and by
	// handle methods (Snapshot queries, Apply) whose DB or handle has been
	// closed.
	ErrClosed = errors.New("peb: database is closed")

	// ErrInvalidRegion is wrapped by the typed *InvalidRegionError that
	// queries return for a malformed query region.
	ErrInvalidRegion = errors.New("peb: invalid region")

	// ErrCorruptCheckpoint is wrapped by every error OpenExisting returns
	// for on-disk state that cannot be a valid checkpoint: an unparsable
	// meta or policies file, a truncated backing file, a root or free list
	// referencing pages the file does not hold, or index pages whose
	// structure is garbage. It means the checkpoint cannot be trusted, not
	// merely that an option was wrong.
	ErrCorruptCheckpoint = errors.New("peb: corrupt checkpoint")

	// ErrUnsupportedFormat is wrapped by every error Open and OpenExisting
	// return for on-disk state of another format generation: a meta,
	// policies snapshot or log record without the current version stamp, or
	// a single-file log at the bare <Path>.wal name. Nothing is migrated,
	// and a refused open leaves every file as it found it.
	ErrUnsupportedFormat = codec.ErrUnsupportedFormat
)

// InvalidRegionError reports the malformed region a query was given
// (MinX > MaxX or MinY > MaxY). It wraps ErrInvalidRegion, so both
// errors.Is(err, ErrInvalidRegion) and errors.As(err, *&e) work.
type InvalidRegionError struct {
	Region Region
}

// Error implements error.
func (e *InvalidRegionError) Error() string {
	return fmt.Sprintf("peb: invalid region [%g,%g]x[%g,%g]: min exceeds max",
		e.Region.MinX, e.Region.MaxX, e.Region.MinY, e.Region.MaxY)
}

// Unwrap makes errors.Is(err, ErrInvalidRegion) succeed.
func (e *InvalidRegionError) Unwrap() error { return ErrInvalidRegion }

// validate checks an Options value, reporting every violation as one error
// wrapping ErrBadOptions. The zero value of any field means "use the
// default" and is always valid.
func (o Options) validate() error {
	var bad []string
	if o.SpaceSide < 0 {
		bad = append(bad, fmt.Sprintf("SpaceSide %g < 0", o.SpaceSide))
	}
	if o.DayLength < 0 {
		bad = append(bad, fmt.Sprintf("DayLength %g < 0", o.DayLength))
	}
	if o.MaxSpeed < 0 {
		bad = append(bad, fmt.Sprintf("MaxSpeed %g < 0", o.MaxSpeed))
	}
	if o.MaxUpdateInterval < 0 {
		bad = append(bad, fmt.Sprintf("MaxUpdateInterval %g < 0", o.MaxUpdateInterval))
	}
	if o.BufferPages < 0 {
		bad = append(bad, fmt.Sprintf("BufferPages %d < 0", o.BufferPages))
	}
	if o.Durability < DurabilityNone || o.Durability > DurabilitySync {
		bad = append(bad, fmt.Sprintf("unknown Durability %d", o.Durability))
	}
	if o.Durability != DurabilityNone && o.Path == "" {
		bad = append(bad, "Durability requires Path")
	}
	if o.WALSegmentBytes < 0 {
		bad = append(bad, fmt.Sprintf("WALSegmentBytes %d < 0", o.WALSegmentBytes))
	}
	if o.AutoCheckpoint.WALBytes < 0 {
		bad = append(bad, fmt.Sprintf("AutoCheckpoint.WALBytes %d < 0", o.AutoCheckpoint.WALBytes))
	}
	if o.AutoCheckpoint.enabled() && o.Durability == DurabilityNone {
		bad = append(bad, "AutoCheckpoint requires Durability (its threshold measures the write-ahead log)")
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrBadOptions, strings.Join(bad, "; "))
}
