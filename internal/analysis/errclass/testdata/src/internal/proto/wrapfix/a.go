// Package wrapfix exercises the %w rule, which applies only under
// internal/proto (this fixture's path): wrapping a cause without %w
// breaks the errors.Is classification the retry budget depends on.
package wrapfix

import (
	"errors"
	"fmt"
)

var errBase = errors.New("base")

func wrapOK(err error) error {
	return fmt.Errorf("op failed: %w", err)
}

func wrapStripped(err error) error {
	return fmt.Errorf("op failed: %v", err) // want `error formatted without %w strips the chain`
}

func wrapString(err error) error {
	return fmt.Errorf("op failed: %s", err) // want `error formatted without %w strips the chain`
}

func wrapNoError(n int) error {
	return fmt.Errorf("op failed after %d tries", n)
}

func wrapBoth(err error) error {
	// %w present: additional %v operands ride along legally.
	return fmt.Errorf("op %v failed: %w", 42, err)
}
