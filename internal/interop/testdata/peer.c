/* The C side of the libtirpc differential: one request a line on stdin,
 * one answer a line on stdout.
 *
 *   rt <type> <hex>   decode the bytes as one <type> with libtirpc's
 *                     xdr_<type> (rpcgen's routine over xdrmem), encode
 *                     the value again: "ok <bytes used> <hex>" or "bad"
 *   val <name>        encode the value values.inc builds by hand under
 *                     that name: "ok <hex>" or "bad"
 *
 * An empty byte string is written "-". The test builds this file with
 * spec.h (rpcgen -h), types.inc (the type list) and values.inc next to
 * it, and links it with rpcgen -c's routines and -ltirpc.
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include "spec.h"

#define MAXMSG (1 << 16)

typedef bool_t (*marshal)(XDR *, void *);

static const struct {
	const char *name;
	marshal fn;
	size_t size;
} types[] = {
#define T(name) {#name, (marshal)xdr_##name, sizeof(name)},
#include "types.inc"
#undef T
};

#include "values.inc"

static int unhex(const char *s, char *out) {
	int n = 0;
	if (strcmp(s, "-") == 0)
		return 0;
	for (; s[0] && s[1] && n < MAXMSG; s += 2) {
		unsigned b;
		if (sscanf(s, "%2x", &b) != 1)
			return -1;
		out[n++] = (char)b;
	}
	return n;
}

static void puthex(const char *b, u_int n) {
	u_int i;
	if (n == 0)
		fputs("-", stdout);
	for (i = 0; i < n; i++)
		printf("%02x", (unsigned char)b[i]);
}

static void roundtrip(marshal fn, size_t size, char *in, u_int n) {
	static char out[MAXMSG];
	char *v = calloc(1, size);
	XDR x, y;
	u_int used;
	xdrmem_create(&x, in, n, XDR_DECODE);
	if (!fn(&x, v)) {
		fputs("bad\n", stdout);
		xdr_free((xdrproc_t)fn, v);
		free(v);
		return;
	}
	used = xdr_getpos(&x);
	xdrmem_create(&y, out, sizeof out, XDR_ENCODE);
	if (!fn(&y, v)) {
		fputs("unencodable\n", stdout);
	} else {
		printf("ok %u ", used);
		puthex(out, xdr_getpos(&y));
		fputs("\n", stdout);
	}
	xdr_free((xdrproc_t)fn, v);
	free(v);
}

int main(void) {
	static char line[2 * MAXMSG + 256], in[MAXMSG], out[MAXMSG];
	char op[16], name[64], hex[2 * MAXMSG + 2];
	while (fgets(line, sizeof line, stdin)) {
		size_t i;
		int n;
		XDR x;
		if (sscanf(line, "val %63s", name) == 1) {
			xdrmem_create(&x, out, sizeof out, XDR_ENCODE);
			if (!value(name, &x)) {
				fputs("bad\n", stdout);
				continue;
			}
			fputs("ok ", stdout);
			puthex(out, xdr_getpos(&x));
			fputs("\n", stdout);
			continue;
		}
		if (sscanf(line, "%15s %63s %131073s", op, name, hex) != 3 || strcmp(op, "rt") != 0 ||
		    (n = unhex(hex, in)) < 0) {
			fputs("malformed\n", stdout);
			continue;
		}
		for (i = 0; i < sizeof types / sizeof types[0]; i++)
			if (strcmp(types[i].name, name) == 0)
				break;
		if (i == sizeof types / sizeof types[0]) {
			fputs("unknown\n", stdout);
			continue;
		}
		roundtrip(types[i].fn, types[i].size, in, (u_int)n);
	}
	return 0;
}
