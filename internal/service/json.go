package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Deterministic JSON encoding for every service response. The contract
// is byte-identical bodies for identical results, across processes and
// runs: object keys are emitted in sorted order and floating-point
// numbers are formatted with strconv.FormatFloat(f, 'g', -1, 64) — the
// shortest representation that round-trips — rather than encoding/json's
// own float algorithm. Responses are built as map[string]any trees of
// the supported leaf types; an unsupported type is a programming error
// and panics in the response path's encode step.

// encodePool recycles the scratch buffers marshalDet encodes into; the
// result is copied out, so callers own plain immutable slices and the
// buffer's capacity is reused by the next encode.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledEncodeBuf bounds the buffers the pool retains — a rare huge
// body (an experiment dump) must not pin its capacity forever.
const maxPooledEncodeBuf = 1 << 20

// marshalDet renders v deterministically, with a trailing newline so
// bodies are friendly to curl.
func marshalDet(v any) []byte {
	buf := encodePool.Get().(*bytes.Buffer)
	buf.Reset()
	encodeDet(buf, v)
	buf.WriteByte('\n')
	out := append([]byte(nil), buf.Bytes()...)
	if buf.Cap() <= maxPooledEncodeBuf {
		encodePool.Put(buf)
	}
	return out
}

// MarshalDeterministic is the exported form of the service's
// deterministic JSON encoder, for tools (ipcload) that want their
// reports byte-comparable with the daemon's bodies.
func MarshalDeterministic(v any) []byte { return marshalDet(v) }

func encodeDet(buf *bytes.Buffer, v any) {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case string:
		b, err := json.Marshal(x) // string escaping is deterministic
		if err != nil {
			panic(fmt.Sprintf("service: encode string: %v", err))
		}
		buf.Write(b)
	case int:
		buf.WriteString(strconv.FormatInt(int64(x), 10))
	case int64:
		buf.WriteString(strconv.FormatInt(x, 10))
	case uint64:
		buf.WriteString(strconv.FormatUint(x, 10))
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			panic("service: cannot encode non-finite float")
		}
		buf.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			encodeDet(buf, k)
			buf.WriteByte(':')
			encodeDet(buf, x[k])
		}
		buf.WriteByte('}')
	case []any:
		encodeList(buf, x)
	case []string:
		encodeList(buf, x)
	case []int64:
		encodeList(buf, x)
	default:
		panic(fmt.Sprintf("service: cannot encode %T deterministically", v))
	}
}

// encodeList renders a JSON array of deterministically encoded values.
func encodeList[T any](buf *bytes.Buffer, xs []T) {
	buf.WriteByte('[')
	for i, e := range xs {
		if i > 0 {
			buf.WriteByte(',')
		}
		encodeDet(buf, e)
	}
	buf.WriteByte(']')
}
