// Package errclassfix exercises errclass's identity-comparison and
// string-matching rules against sentinels declared locally and in an
// imported package (io).
package errclassfix

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

var ErrStalled = errors.New("stalled")
var ErrChecksum = fmt.Errorf("checksum bad")

var label = "not an error"

func compare(err error) bool {
	if err == ErrStalled { // want `compare errors with errors.Is\(err, ErrStalled\)`
		return true
	}
	if ErrChecksum != err { // want `compare errors with errors.Is\(err, ErrChecksum\)`
		return true
	}
	if errors.Is(err, ErrStalled) { // correct form: no diagnostic
		return true
	}
	return err == nil // nil checks are identity by definition
}

func stringMatch(err error, s string) bool {
	if err.Error() == "stalled" { // want `don't string-match err.Error\(\)`
		return true
	}
	if "stalled" != err.Error() { // want `don't string-match err.Error\(\)`
		return true
	}
	if strings.Contains(err.Error(), "stall") { // want `don't string-match err.Error\(\)`
		return true
	}
	if strings.HasPrefix(err.Error(), "proto:") { // want `don't string-match err.Error\(\)`
		return true
	}
	if s == label { // plain string comparison: no diagnostic
		return true
	}
	return strings.Contains(s, "x") // no err.Error() involved
}

func switchForms(err error) int {
	switch err {
	case nil:
		return 0
	case ErrStalled: // want `compare errors with errors.Is\(err, ErrStalled\)`
		return 1
	}
	switch err.Error() { // want `don't string-match err.Error\(\)`
	case "stalled":
		return 2
	}
	return 3
}

// importedSentinels: a sentinel from another package is recognized by
// its type alone, with no state carried over from the io unit.
func importedSentinels(err error) int {
	if err == io.EOF { // want `compare errors with errors.Is\(err, EOF\)`
		return 0
	}
	switch err {
	case io.ErrUnexpectedEOF: // want `compare errors with errors.Is\(err, ErrUnexpectedEOF\)`
		return 1
	}
	return 2
}

// wrapOutsideRetryPath: the %w rule is scoped to internal/proto, so a
// chain-stripping wrap here is not this package's concern.
func wrapOutsideRetryPath(err error) error {
	return fmt.Errorf("context: %v", err)
}
