package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// defaultSeed is the seed whose simulated results are recorded under
// expected/ and rendered in the committed reproduce_output.txt.
const defaultSeed = 42

// checker decides whether an operation's simulated results are right.
// At the default seed every result must equal the recorded one; at any
// other seed the first result under each key becomes the reference and
// every repeat must equal it. Results compare as their JSON encoding,
// which carries every integer and float at full precision.
type checker struct {
	recorded bool // refs were loaded from a recording: unknown keys fail
	refs     map[string][]byte
}

// newChecker loads the recording for a workload at the default seed; at
// any other seed it starts empty.
func newChecker(dir, workload string, seed uint64) (*checker, error) {
	c := &checker{refs: map[string][]byte{}}
	if seed != defaultSeed {
		return c, nil
	}
	b, err := os.ReadFile(filepath.Join(dir, "expected", workload+".json"))
	if err != nil {
		return nil, fmt.Errorf("read recorded results: %w", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("decode recorded results: %w", err)
	}
	for k, v := range raw {
		var buf bytes.Buffer
		if err := json.Compact(&buf, v); err != nil {
			return nil, fmt.Errorf("recorded result %s: %w", k, err)
		}
		c.refs[k] = buf.Bytes()
	}
	c.recorded = true
	return c, nil
}

// check compares one result against its reference.
func (c *checker) check(key string, v any) error {
	got, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode result %s: %w", key, err)
	}
	want, ok := c.refs[key]
	if !ok {
		if c.recorded {
			return fmt.Errorf("result %s: nothing recorded", key)
		}
		c.refs[key] = got
		return nil
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("result %s differs from the reference:\n got %.300s\nwant %.300s", key, got, want)
	}
	return nil
}

// record writes every reference seen as the workload's recording.
func (c *checker) record(dir, workload string) error {
	raw := map[string]json.RawMessage{}
	for k, v := range c.refs {
		raw[k] = v
	}
	b, err := json.MarshalIndent(raw, "", " ")
	if err != nil {
		return fmt.Errorf("encode recording: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "expected", workload+".json"), append(b, '\n'), 0o644)
}

// golden is the committed reproduce_output.txt, the full default-seed
// run of cmd/reproduce, against which rendered blocks are checked.
type golden string

func loadGolden(root string) (golden, error) {
	b, err := os.ReadFile(filepath.Join(root, "reproduce_output.txt"))
	if err != nil {
		return "", fmt.Errorf("read golden output: %w", err)
	}
	return golden(b), nil
}

// hasBlock reports whether a rendered block appears verbatim.
func (g golden) hasBlock(block string) error {
	if !strings.Contains(string(g), block) {
		return fmt.Errorf("rendered block not in reproduce_output.txt:\n%.400s", block)
	}
	return nil
}

// hasRow reports whether some line of the golden output has the same
// whitespace-separated fields as row — a table row rendered alone pads
// its columns differently from the full table.
func (g golden) hasRow(row string) error {
	want := strings.Join(strings.Fields(row), " ")
	for _, line := range strings.Split(string(g), "\n") {
		if strings.Join(strings.Fields(line), " ") == want {
			return nil
		}
	}
	return fmt.Errorf("rendered row not in reproduce_output.txt: %q", row)
}
