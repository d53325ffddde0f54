package extract

import "bytes"

// The buffered strings(1) scan: the differential oracle the
// StringStreamer, and so StringsText, is tested against.

// Strings returns every run of at least minLen consecutive printable
// characters in data, in file order, mirroring strings(1). A minLen of 0
// selects MinStringLength.
func Strings(data []byte, minLen int) []string {
	if minLen <= 0 {
		minLen = MinStringLength
	}
	var out []string
	start := -1
	for i, b := range data {
		if printable(b) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start >= minLen {
			out = append(out, string(data[start:i]))
		}
		start = -1
	}
	if start >= 0 && len(data)-start >= minLen {
		out = append(out, string(data[start:]))
	}
	return out
}

// stringsTextOracle renders the strings(1) view of data as
// newline-separated text.
func stringsTextOracle(data []byte, minLen int) []byte {
	runs := Strings(data, minLen)
	var buf bytes.Buffer
	for _, r := range runs {
		buf.WriteString(r)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
