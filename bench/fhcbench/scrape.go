package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition is a parsed /metrics scrape.
type exposition []series

// parseExposition parses the text exposition format fhc writes: comment
// lines, then `name{label="value",...} number` lines.
func parseExposition(raw []byte) (exposition, error) {
	var out exposition
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := series{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			if s.labels, err = parseLabels(s.name[i+1:]); err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses `k="v",k2="v2"}`, unescaping values.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "}" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed labels %q", s)
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i+1 >= len(s) {
			return nil, fmt.Errorf("unterminated label %q", key)
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return labels, nil
}

// sum adds every series named name whose labels include the given
// key/value pairs.
func (x exposition) sum(name string, match ...string) float64 {
	total := 0.0
next:
	for _, s := range x {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// delta is a counter's increase between two scrapes of each of a set of
// processes, summed over the processes.
func delta(before, after []exposition, name string, match ...string) float64 {
	d := 0.0
	for i := range after {
		d += after[i].sum(name, match...) - before[i].sum(name, match...)
	}
	return d
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
