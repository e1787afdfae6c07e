package server

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadRawBody drives ReadRawBody through a real HTTP server with a
// 16-byte limit: bodies of known length and chunked bodies, within and
// past the limit, and a body shorter than its Content-Length.
func TestReadRawBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, ok := ReadRawBody(w, r, 16); ok {
			_, _ = w.Write(body)
		}
	}))
	defer ts.Close()

	for _, tc := range []struct {
		name    string
		body    io.Reader
		code    int
		content string // the echoed body on 200, the error reply otherwise
	}{
		{"sized", strings.NewReader("0123456789"), http.StatusOK, "0123456789"},
		{"sized, at the limit", strings.NewReader("0123456789abcdef"), http.StatusOK, "0123456789abcdef"},
		{"sized, empty", strings.NewReader(""), http.StatusOK, ""},
		{"sized, past the limit", strings.NewReader("0123456789abcdefg"), http.StatusRequestEntityTooLarge,
			`{"error":"reading body: http: request body too large"}` + "\n"},
		// A reader of unknown length makes the client send the body chunked.
		{"chunked", io.MultiReader(strings.NewReader("01234"), strings.NewReader("56789")), http.StatusOK, "0123456789"},
		{"chunked, past the limit", io.MultiReader(strings.NewReader("0123456789"), strings.NewReader("abcdefg")),
			http.StatusRequestEntityTooLarge, `{"error":"reading body: http: request body too large"}` + "\n"},
	} {
		resp, err := http.Post(ts.URL, "text/plain", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code || string(got) != tc.content {
			t.Errorf("%s: status %d, body %q, want %d %q", tc.name, resp.StatusCode, got, tc.code, tc.content)
		}
	}

	// A sized body larger than sizedBodyMax, within a larger limit,
	// takes the MaxBytesReader path.
	big := strings.Repeat("x", sizedBodyMax+1)
	bigTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, ok := ReadRawBody(w, r, 2*sizedBodyMax); ok {
			_, _ = w.Write(body)
		}
	}))
	defer bigTS.Close()
	resp, err := http.Post(bigTS.URL, "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != big {
		t.Errorf("sized, above sizedBodyMax: status %d, %d bytes back, want 200 and %d", resp.StatusCode, len(got), len(big))
	}

	// A client that promises 10 bytes, sends 4 and stops writing.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n0123"); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"error":"reading body: unexpected EOF"}` + "\n"; resp.StatusCode != http.StatusBadRequest || string(got) != want {
		t.Errorf("short body: status %d, body %q, want 400 %q", resp.StatusCode, got, want)
	}
}
