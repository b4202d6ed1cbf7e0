(* The hand-written floor for the compiled engine: sum-factorized Inverse
   Helmholtz as plain loops over flat float arrays, row-major like the
   CFDlang tensors (S is n x n, D/u/v are n x n x n).

     t[i,j,k] = sum_{l,m,q} S[i,l] S[j,m] S[k,q] u[l,m,q]
     v[i,j,k] = sum_{l,m,q} S[l,i] S[m,j] S[q,k] (D * t)[l,m,q]

   Each six-fold sum is three single-index contractions, 6 n^4
   multiply-adds per element in total. *)

type work = {
  n : int;
  st : float array;  (** S transposed *)
  a : float array;
  b : float array;
  c : float array;
}

let work n =
  let cube () = Array.make (n * n * n) 0.0 in
  { n; st = Array.make (n * n) 0.0; a = cube (); b = cube (); c = cube () }

(* dst[z,x,y] = sum_w S[z,w] src[x,y,w]: the contracted index is last in
   [src] and the new one first in [dst], so three applications contract
   all three dimensions and restore the original order. *)
let stage n s src dst =
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      let base = ((x * n) + y) * n in
      for z = 0 to n - 1 do
        let acc = ref 0.0 in
        for w = 0 to n - 1 do
          acc :=
            !acc +. (Array.unsafe_get s ((z * n) + w) *. Array.unsafe_get src (base + w))
        done;
        Array.unsafe_set dst ((((z * n) + x) * n) + y) !acc
      done
    done
  done

let apply w ~s ~d ~u ~v =
  let n = w.n in
  if Array.length s <> n * n || Array.length d <> Array.length w.a
     || Array.length u <> Array.length w.a || Array.length v <> Array.length w.a
  then invalid_arg "Floor.apply: operand sizes";
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      w.st.((j * n) + i) <- s.((i * n) + j)
    done
  done;
  stage n s u w.a;
  stage n s w.a w.b;
  stage n s w.b w.c;
  for i = 0 to (n * n * n) - 1 do
    Array.unsafe_set w.c i (Array.unsafe_get d i *. Array.unsafe_get w.c i)
  done;
  stage n w.st w.c w.a;
  stage n w.st w.a w.b;
  stage n w.st w.b v
