module genetic_circuit(input IN4, input AraC, input TetR, input LacI, output y);
  wire n1, n2, n3, n4, n5;
  not g0(n1, AraC);
  not g1(n2, TetR);
  nor g2(n3, n1, n2);
  nor g3(n4, AraC, TetR);
  nor g4(n5, n3, n4);
  assign y = n5;
endmodule
