package store

import (
	"fmt"
	"strings"
)

// OpenDSN opens a Backend named by a DSN of the form "scheme:rest":
//
//	jsonl:DIR    the append-only JSONL log (the default engine)
//	mem:         an in-memory store; nothing survives the process
//	seglog:DIR   the segmented binary log with group-commit coalescing
//
//	faultinject:SCHEDULE:INNER_DSN
//	             a fault-injection wrapper around any of the above, failing
//	             scripted calls per SCHEDULE (see ParseFaultSchedule), e.g.
//	             faultinject:put@4-7:jsonl:cache or
//	             faultinject:put~0.2/42:seglog:cache. An empty SCHEDULE
//	             injects nothing. For testing fault tolerance.
//
// A DSN with no recognizable scheme — a bare directory like "cache",
// "./cache" or "/tmp/cache", including Windows drive paths — opens the
// jsonl backend on that directory, so every pre-DSN store argument keeps
// meaning what it meant. An unknown lowercase scheme is an error naming
// the valid ones rather than a surprise directory with a colon in it.
func OpenDSN(dsn string) (Backend, error) {
	scheme, rest, ok := splitScheme(dsn)
	if !ok {
		scheme, rest = "jsonl", dsn
	}
	switch scheme {
	case "jsonl":
		if rest == "" {
			return nil, fmt.Errorf("store: DSN %q: jsonl: needs a directory, e.g. jsonl:cache", dsn)
		}
		return Open(rest)
	case "mem":
		if rest != "" {
			return nil, fmt.Errorf("store: DSN %q: mem: takes no path", dsn)
		}
		return NewMem(), nil
	case "seglog":
		if rest == "" {
			return nil, fmt.Errorf("store: DSN %q: seglog: needs a directory, e.g. seglog:cache", dsn)
		}
		return OpenSegLog(rest)
	case "faultinject":
		schedule, inner, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("store: DSN %q: faultinject: want faultinject:SCHEDULE:INNER_DSN, e.g. faultinject:put@4-7:jsonl:cache", dsn)
		}
		rules, err := ParseFaultSchedule(schedule)
		if err != nil {
			return nil, fmt.Errorf("store: DSN %q: %w", dsn, err)
		}
		b, err := OpenDSN(inner)
		if err != nil {
			return nil, err
		}
		return NewFaultInject(b, rules), nil
	default:
		return nil, fmt.Errorf("store: DSN %q: unknown scheme %q (valid: jsonl:DIR, mem:, seglog:DIR, faultinject:SCHEDULE:INNER_DSN; a bare path means jsonl)", dsn, scheme)
	}
}

// splitScheme splits "scheme:rest" when the text before the first colon is
// shaped like a scheme: one or more lowercase ASCII letters. Anything else
// — no colon, "./x", "C:\x", an empty prefix — is not a scheme, so the
// whole string reads as a bare path.
func splitScheme(dsn string) (scheme, rest string, ok bool) {
	i := strings.IndexByte(dsn, ':')
	if i < 1 {
		return "", "", false
	}
	for _, c := range dsn[:i] {
		if c < 'a' || c > 'z' {
			return "", "", false
		}
	}
	return dsn[:i], dsn[i+1:], true
}
