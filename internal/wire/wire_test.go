package wire

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWriteJSONAndDecodeResponse(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, FairshareResponse{User: "u", Value: 0.75})
	resp := rec.Result()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var out FairshareResponse
	if err := DecodeResponse(resp, &out); err != nil {
		t.Fatal(err)
	}
	if out.User != "u" || out.Value != 0.75 {
		t.Errorf("decoded = %+v", out)
	}
}

func TestDecodeResponseErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, "user %s missing", "bob")
	err := DecodeResponse(rec.Result(), nil)
	if err == nil || !strings.Contains(err.Error(), "user bob missing") {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeResponseNonJSONError(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusBadGateway)
	rec.WriteString("gateway exploded")
	err := DecodeResponse(rec.Result(), nil)
	if err == nil || !strings.Contains(err.Error(), "502") {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeResponseNilTarget(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]int{"x": 1})
	if err := DecodeResponse(rec.Result(), nil); err != nil {
		t.Errorf("nil target err = %v", err)
	}
}

func TestReadJSON(t *testing.T) {
	var req ResolveRequest
	err := ReadJSON(strings.NewReader(`{"site":"s","localUser":"l"}`), &req)
	if err != nil || req.Site != "s" || req.LocalUser != "l" {
		t.Errorf("ReadJSON = %+v, %v", req, err)
	}
	if err := ReadJSON(strings.NewReader("{bad"), &req); err == nil {
		t.Error("malformed JSON accepted")
	}
	// The cap is inclusive: a document of exactly maxBody bytes decodes, one
	// byte more is named, not reported as a truncated document.
	var str string
	atCap := `"` + strings.Repeat("x", maxBody-2) + `"`
	if err := ReadJSON(strings.NewReader(atCap), &str); err != nil || len(str) != maxBody-2 {
		t.Errorf("body of exactly the cap: %v (%d bytes decoded)", err, len(str))
	}
	if err := ReadJSON(strings.NewReader(`"x`+atCap[1:]), &str); err != ErrBodyTooLarge {
		t.Errorf("body one byte over the cap: %v, want ErrBodyTooLarge", err)
	}
	// ReadBody holds a raw body to the same cap.
	if b, err := ReadBody(strings.NewReader(atCap)); err != nil || len(b) != maxBody {
		t.Errorf("raw body of exactly the cap: %v (%d bytes)", err, len(b))
	}
	if _, err := ReadBody(strings.NewReader("x" + atCap)); err != ErrBodyTooLarge {
		t.Errorf("raw body one byte over the cap: %v, want ErrBodyTooLarge", err)
	}
}

func TestUsageReportRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	in := UsageReport{
		User:            "alice",
		Start:           time.Date(2013, 2, 3, 4, 5, 6, 0, time.UTC),
		DurationSeconds: 123.5,
		Procs:           2,
	}
	WriteJSON(rec, http.StatusOK, in)
	var out UsageReport
	if err := DecodeResponse(rec.Result(), &out); err != nil {
		t.Fatal(err)
	}
	if out.User != in.User || !out.Start.Equal(in.Start) ||
		out.DurationSeconds != in.DurationSeconds || out.Procs != in.Procs {
		t.Errorf("round trip = %+v", out)
	}
}
