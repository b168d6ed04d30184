package bson

import (
	"bytes"
	"testing"
	"time"
)

// FuzzUnmarshal feeds arbitrary bytes to the decoder under the MongoDB
// honeypot's OP_MSG and OP_QUERY bodies. Properties: no input panics it,
// and a document it accepts marshals to bytes that parse back to a
// document marshalling to the same bytes. Bytes, not values, are
// compared, so a NaN double still has to survive. The seeds are the
// commands the simulated MongoDB scouts and ransom campaigns send
// (internal/simnet/scripts.go), a ransom note as the honeypot stores it,
// and one document holding every element type.
func FuzzUnmarshal(f *testing.F) {
	deleteAll := A{D{{Key: "q", Val: D{}}, {Key: "limit", Val: int32(0)}}}
	note := "All your data is backed up. You must pay 0.0058 BTC to 1BoatSLRHtKNngkdXEeobR76b53LETtpyT In 48 hours, your data will be publicly disclosed and deleted. (more information: go to http://tor2door.example) After paying send mail to us: recover@example.org and we will provide a link for you to download your data. Your DBCODE is: X5K2"
	for _, d := range []D{
		{{Key: "isMaster", Val: int32(1)}, {Key: "$db", Val: "admin"}},
		{{Key: "buildInfo", Val: int32(1)}, {Key: "$db", Val: "admin"}},
		{{Key: "getLog", Val: "startupWarnings"}, {Key: "$db", Val: "admin"}},
		{{Key: "listDatabases", Val: int32(1)}, {Key: "$db", Val: "admin"}},
		{{Key: "listCollections", Val: int32(1)}, {Key: "$db", Val: "customers"}},
		{{Key: "find", Val: "records"}, {Key: "limit", Val: int32(10)}, {Key: "$db", Val: "customers"}},
		{{Key: "delete", Val: "records"}, {Key: "deletes", Val: deleteAll}, {Key: "$db", Val: "customers"}},
		{{Key: "insert", Val: "README"}, {Key: "documents", Val: A{D{{Key: "content", Val: note}}}}, {Key: "$db", Val: "customers"}},
		{{Key: "_id", Val: ObjectID{0x65, 0xfd, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}, {Key: "content", Val: note}},
		{
			{Key: "double", Val: 3.5},
			{Key: "doc", Val: D{{Key: "nested", Val: D{}}}},
			{Key: "bin", Val: Binary{Subtype: 4, Data: []byte{1, 2, 3}}},
			{Key: "bool", Val: true},
			{Key: "date", Val: time.Date(2024, 3, 22, 10, 30, 0, 0, time.UTC)},
			{Key: "null", Val: nil},
			{Key: "regex", Val: Regex{Pattern: "^a.*", Options: "i"}},
			{Key: "ts", Val: Timestamp{T: 100, I: 2}},
			{Key: "i64", Val: int64(-1 << 40)},
		},
	} {
		f.Add(MustMarshal(d))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc, err := Marshal(d)
		if err != nil {
			t.Fatalf("accepted %q, but it does not marshal: %v", data, err)
		}
		back, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("accepted %q, but its encoding %q does not parse: %v", data, enc, err)
		}
		again, err := Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("accepted %q as %#v, encoded as %q, which parses back as %#v and marshals to %q (%v)", data, d, enc, back, again, err)
		}
	})
}
