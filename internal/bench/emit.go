package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// EmitSchemaVersion is the version of the shared kmembench JSON
// envelope. Every subcommand's -json output carries it, so readers of
// the committed BENCH_*.json baselines can tell at parse time which
// generation of the format they are reading. Bump it when an envelope
// field changes meaning; adding result fields is backward compatible
// and does not bump it.
const EmitSchemaVersion = 1

// Emit writes one subcommand result as indented JSON on w, stamped with
// the shared envelope: "Schema" is "kmembench/<name>" and
// "SchemaVersion" is EmitSchemaVersion. Results that marshal to a JSON
// object keep their fields at the top level with the envelope fields
// injected alongside — committed baselines keep addressing ".Points"
// and friends unprefixed. Results that marshal to an array (row slices)
// are wrapped under "Rows".
func Emit(w io.Writer, name string, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return err
	}
	var fields map[string]json.RawMessage
	if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 && trimmed[0] == '{' {
		if err := json.Unmarshal(raw, &fields); err != nil {
			return err
		}
	} else {
		fields = map[string]json.RawMessage{"Rows": raw}
	}
	if _, clash := fields["Schema"]; clash {
		return fmt.Errorf("bench: result for %q already has a Schema field", name)
	}
	fields["Schema"] = json.RawMessage(fmt.Sprintf("%q", "kmembench/"+name))
	fields["SchemaVersion"] = json.RawMessage(fmt.Sprintf("%d", EmitSchemaVersion))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fields)
}
