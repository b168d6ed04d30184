// Package mssql implements a low-interaction Microsoft SQL Server honeypot
// speaking the TDS protocol, as deployed by the paper on port 1433. MSSQL
// absorbed 99.5% of all brute-force logins in the paper's dataset
// (18,076,729 of 18,162,811), so this honeypot is the hot path of the
// whole system: parsing is allocation-light and strictly bounded.
//
// The implementation covers PRELOGIN negotiation and LOGIN7 credential
// capture, including de-obfuscation of the TDS password encoding (nibble
// swap + XOR 0xA5 per byte), and answers every login with the genuine
// "Login failed for user" token stream (error 18456).
package mssql

import (
	"fmt"
	"io"
	"unicode/utf16"

	"decoydb/internal/wire"
)

// TDS packet types.
const (
	PktSQLBatch = 0x01
	PktLogin7   = 0x10
	PktPrelogin = 0x12
	PktResponse = 0x04
)

// MaxPacket bounds a single TDS packet (header + payload).
const MaxPacket = 32 * 1024

// Packet is one TDS packet.
type Packet struct {
	Type    byte
	Status  byte
	Payload []byte
}

// ReadPacket reads one TDS packet.
func ReadPacket(r io.Reader) (Packet, error) {
	var hdr [8]byte
	if err := wire.ReadFull(r, hdr[:]); err != nil {
		return Packet{}, err
	}
	length := int(hdr[2])<<8 | int(hdr[3])
	if length < 8 || length > MaxPacket {
		return Packet{}, fmt.Errorf("%w: tds length %d", wire.ErrFrameTooLarge, length)
	}
	payload := make([]byte, length-8)
	if err := wire.ReadFull(r, payload); err != nil {
		return Packet{}, err
	}
	return Packet{Type: hdr[0], Status: hdr[1], Payload: payload}, nil
}

// WritePacket writes one TDS packet with EOM status.
func WritePacket(w io.Writer, p Packet) error {
	length := len(p.Payload) + 8
	if length > MaxPacket {
		return wire.ErrFrameTooLarge
	}
	hdr := [8]byte{p.Type, 0x01 /* EOM */, byte(length >> 8), byte(length), 0, 0, 1, 0}
	if p.Status != 0 {
		hdr[1] = p.Status
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(p.Payload)
	return err
}

// PreloginOption tokens.
const (
	PreloginVersion    = 0x00
	PreloginEncryption = 0x01
	PreloginInstOpt    = 0x02
	PreloginThreadID   = 0x03
	PreloginMARS       = 0x04
	PreloginTerminator = 0xff
)

// EncryptNotSup tells clients the server does not support encryption, so
// the LOGIN7 arrives in the clear — exactly what a credential-harvesting
// honeypot wants and what ancient exposed MSSQL boxes actually do.
const EncryptNotSup = 0x02

// EncodePrelogin renders a PRELOGIN payload from (token, data) pairs in
// the given order.
func EncodePrelogin(opts [][2][]byte) []byte {
	// Option table: 5 bytes per option + terminator.
	tableLen := len(opts)*5 + 1
	w := wire.NewWriter(tableLen + 16)
	off := tableLen
	for _, o := range opts {
		w.Uint8(o[0][0])
		w.Uint16BE(uint16(off))
		w.Uint16BE(uint16(len(o[1])))
		off += len(o[1])
	}
	w.Uint8(PreloginTerminator)
	for _, o := range opts {
		w.Raw(o[1])
	}
	return w.Bytes()
}

// StandardPrelogin builds the prelogin body advertising version and
// encryption mode.
func StandardPrelogin(major, minor byte, build uint16, encrypt byte) []byte {
	version := []byte{major, minor, byte(build >> 8), byte(build), 0, 0}
	return EncodePrelogin([][2][]byte{
		{{PreloginVersion}, version},
		{{PreloginEncryption}, {encrypt}},
		{{PreloginInstOpt}, {0}},
		{{PreloginThreadID}, {0, 0, 0, 0}},
		{{PreloginMARS}, {0}},
	})
}

// ParsePreloginEncryption extracts the ENCRYPTION option from a prelogin
// payload, returning 0xFF if absent or malformed.
func ParsePreloginEncryption(payload []byte) byte {
	r := wire.NewReader(payload)
	for {
		tok, err := r.Uint8()
		if err != nil || tok == PreloginTerminator {
			return 0xff
		}
		off, err := r.Uint16BE()
		if err != nil {
			return 0xff
		}
		length, err := r.Uint16BE()
		if err != nil {
			return 0xff
		}
		if tok == PreloginEncryption && length >= 1 && int(off) < len(payload) {
			return payload[off]
		}
	}
}

// Login7 carries the credential-bearing fields of a LOGIN7 record.
type Login7 struct {
	TDSVersion uint32
	HostName   string
	UserName   string
	Password   string
	AppName    string
	ServerName string
	CltIntName string
	Database   string
}

// login7 field descriptor order within the offset/length table.
const (
	fHostName = iota
	fUserName
	fPassword
	fAppName
	fServerName
	fUnused
	fCltIntName
	fLanguage
	fDatabase
	nFields
)

// ParseLogin7 decodes a LOGIN7 payload, de-obfuscating the password.
func ParseLogin7(payload []byte) (Login7, error) {
	r := wire.NewReader(payload)
	var l Login7
	total, err := r.Uint32LE()
	if err != nil {
		return l, err
	}
	if int(total) > len(payload) {
		return l, fmt.Errorf("mssql: login7 declared length %d > payload %d", total, len(payload))
	}
	if l.TDSVersion, err = r.Uint32LE(); err != nil {
		return l, err
	}
	// PacketSize, ClientProgVer, ClientPID, ConnectionID.
	if err = r.Skip(16); err != nil {
		return l, err
	}
	// OptionFlags1/2, TypeFlags, OptionFlags3, ClientTimeZone, ClientLCID.
	if err = r.Skip(4 + 4 + 4); err != nil {
		return l, err
	}
	type fieldRef struct{ off, n uint16 }
	var refs [nFields]fieldRef
	for i := 0; i < nFields; i++ {
		if refs[i].off, err = r.Uint16LE(); err != nil {
			return l, err
		}
		if refs[i].n, err = r.Uint16LE(); err != nil {
			return l, err
		}
	}
	str := func(i int, password bool) string {
		off, n := int(refs[i].off), int(refs[i].n) // n counts UCS-2 chars
		if n == 0 || off < 0 || off+2*n > len(payload) {
			return ""
		}
		raw := payload[off : off+2*n]
		if password {
			dec := make([]byte, len(raw))
			for j, b := range raw {
				b ^= 0xa5
				dec[j] = (b >> 4) | (b << 4)
			}
			raw = dec
		}
		return decodeUCS2(raw)
	}
	l.HostName = str(fHostName, false)
	l.UserName = str(fUserName, false)
	l.Password = str(fPassword, true)
	l.AppName = str(fAppName, false)
	l.ServerName = str(fServerName, false)
	l.CltIntName = str(fCltIntName, false)
	l.Database = str(fDatabase, false)
	return l, nil
}

// defaultTDSVersion is the TDS version EncodeLogin7 writes when the
// Login7 names none: TDS 7.4.
const defaultTDSVersion = 0x74000004

// EncodeLogin7 renders a LOGIN7 payload (client side; used by the
// simulator's brute-force actors).
func EncodeLogin7(l Login7) []byte {
	fields := [nFields]string{
		fHostName:   l.HostName,
		fUserName:   l.UserName,
		fPassword:   l.Password,
		fAppName:    l.AppName,
		fServerName: l.ServerName,
		fCltIntName: l.CltIntName,
		fDatabase:   l.Database,
	}
	// Fixed part layout: Length(4) TDSVersion(4) PacketSize(4)
	// ClientProgVer(4) ClientPID(4) ConnectionID(4) flags(4)
	// TimeZone(4) LCID(4) offsets(nFields*4) ClientID(6) SSPI off/len(4)
	// AtchDBFile off/len(4) ChangePassword off/len(4) SSPILong(4).
	fixed := 9*4 + nFields*4 + 6 + 4 + 4 + 4 + 4
	var data []byte
	var refs [nFields][2]uint16
	off := fixed
	for i, s := range fields {
		enc := encodeUCS2(s)
		if i == fPassword {
			for j := range enc {
				b := enc[j]
				b = (b >> 4) | (b << 4)
				enc[j] = b ^ 0xa5
			}
		}
		refs[i] = [2]uint16{uint16(off), uint16(len(enc) / 2)} // UCS-2 units, not bytes of s
		data = append(data, enc...)
		off += len(enc)
	}
	w := wire.NewWriter(fixed + len(data))
	w.Uint32LE(uint32(fixed + len(data)))
	tdsVer := l.TDSVersion
	if tdsVer == 0 {
		tdsVer = defaultTDSVersion
	}
	w.Uint32LE(tdsVer)
	w.Uint32LE(4096) // packet size
	w.Uint32LE(7)    // client prog version
	w.Uint32LE(1000) // client PID
	w.Uint32LE(0)    // connection id
	w.Uint8(0xe0).Uint8(0x03).Uint8(0).Uint8(0)
	w.Uint32LE(0) // timezone
	w.Uint32LE(0) // LCID
	for i := 0; i < nFields; i++ {
		w.Uint16LE(refs[i][0])
		w.Uint16LE(refs[i][1])
	}
	w.Raw([]byte{0, 1, 2, 3, 4, 5})                   // ClientID (MAC)
	w.Uint16LE(uint16(fixed + len(data))).Uint16LE(0) // SSPI
	w.Uint16LE(uint16(fixed + len(data))).Uint16LE(0) // AtchDBFile
	w.Uint16LE(uint16(fixed + len(data))).Uint16LE(0) // ChangePassword
	w.Uint32LE(0)                                     // SSPI long
	w.Raw(data)
	return w.Bytes()
}

// LoginFailedResponse renders the token stream MSSQL sends for a failed
// login: ERROR token 18456 followed by DONE(error).
func LoginFailedResponse(user string) []byte {
	msg := fmt.Sprintf("Login failed for user '%s'.", user)
	msgU := encodeUCS2(msg)
	srv := encodeUCS2("HONEYSQL")
	w := wire.NewWriter(64 + len(msgU))
	w.Uint8(0xaa) // ERROR token
	// token length: number(4) state(1) class(1) msgLen(2)+msg srvLen(1)+srv procLen(1) line(4)
	tokLen := 4 + 1 + 1 + 2 + len(msgU) + 1 + len(srv) + 1 + 4
	w.Uint16LE(uint16(tokLen))
	w.Uint32LE(18456) // error number
	w.Uint8(1)        // state
	w.Uint8(14)       // class (severity)
	w.Uint16LE(uint16(len(msg)))
	w.Raw(msgU)
	w.Uint8(byte(len("HONEYSQL")))
	w.Raw(srv)
	w.Uint8(0)    // proc name length
	w.Uint32LE(1) // line number
	// DONE token: status DONE_ERROR(0x0002) | DONE_FINAL(0x0000)
	w.Uint8(0xfd)
	w.Uint16LE(0x0002)
	w.Uint16LE(0)
	w.Uint64LE(0)
	return w.Bytes()
}

// ParseError extracts (code, message) from an ERROR token stream (client
// side, used by simulated attackers to confirm the login failed).
func ParseError(payload []byte) (uint32, string, bool) {
	r := wire.NewReader(payload)
	tok, err := r.Uint8()
	if err != nil || tok != 0xaa {
		return 0, "", false
	}
	if _, err := r.Uint16LE(); err != nil {
		return 0, "", false
	}
	code, err := r.Uint32LE()
	if err != nil {
		return 0, "", false
	}
	if err := r.Skip(2); err != nil {
		return 0, "", false
	}
	n, err := r.Uint16LE()
	if err != nil {
		return 0, "", false
	}
	raw, err := r.Bytes(int(n) * 2)
	if err != nil {
		return 0, "", false
	}
	return code, decodeUCS2(raw), true
}

func encodeUCS2(s string) []byte {
	u := utf16.Encode([]rune(s))
	out := make([]byte, 2*len(u))
	for i, c := range u {
		out[2*i] = byte(c)
		out[2*i+1] = byte(c >> 8)
	}
	return out
}

func decodeUCS2(b []byte) string {
	u := make([]uint16, len(b)/2)
	for i := range u {
		u[i] = uint16(b[2*i]) | uint16(b[2*i+1])<<8
	}
	return string(utf16.Decode(u))
}
