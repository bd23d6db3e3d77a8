package resp

import (
	"errors"

	"directload/internal/core"
)

// RESP error classes. Redis convention puts a one-word class in front
// of the message (-WRONGTYPE, -EXECABORT, ...); the engine sentinels
// get their own classes so the mapping is reversible: a client that
// reads -NOTFOUND back can reconstruct core.ErrNotFound, as the binary
// wire's StatusError does for StatusNotFound.
const (
	ClassErr       = "ERR"
	ClassNotFound  = "NOTFOUND"
	ClassDeleted   = "DELETED"
	ClassExecAbort = "EXECABORT"
)

// classify maps an engine error onto its RESP error class.
func classify(err error) string {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return ClassNotFound
	case errors.Is(err, core.ErrDeleted):
		return ClassDeleted
	}
	return ClassErr
}
